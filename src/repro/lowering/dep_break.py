"""AST-level induction- and reduction-variable detection.

Kremlin statically identifies induction and reduction dependences and breaks
them with a special shadow-memory update rule that ignores the dependency on
the old value (paper §4.1). Working at the AST level (rather than on the IR,
as LLVM-based Kremlin does) gives us exact variable identity. The static
analyzer's IR-level detectors (:mod:`repro.analysis.dependence`) give every
register-valued mark the same class; tests check that property.

Classification, per innermost enclosing loop:

* **induction update** — an assignment ``v = v ± c`` / ``v ±= c`` where ``c``
  is loop-invariant and this is the only assignment to ``v`` anywhere in the
  loop. The ``for``-header step statement is the canonical case. A call to
  a user function anywhere in the loop may write any global or array, and
  the analysis sees one loop without a symbol table, so in such a loop only
  a constant ``c`` is invariant.
* **reduction update** — ``v = v ⊕ e`` / ``v ⊕= e`` with ``⊕`` associative
  (``+``, ``-`` treated as ``+ (-e)``, ``*``), the only assignment to ``v``
  in the loop, and ``v`` not read by any *other* statement of the loop.
  Array-element compound updates ``A[idx] ⊕= e`` (histograms) are reductions
  when ``idx`` does not read ``A``.

The result maps ``id(assign_stmt)`` to ``('induction'|'reduction',
old_value_operand_index)``; lowering transfers the flag onto the emitted
:class:`~repro.ir.instructions.BinOp`.

Each loop is classified once. :func:`analyze_loop_dependences` marks only
the statements whose innermost loop is the one it analyzes, so every
statement is decided by exactly one loop and
:func:`analyze_function_dependences` merges the per-loop results without
a second ownership pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.frontend.ast_nodes import (
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    CallExpr,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    IfStmt,
    IndexExpr,
    NameExpr,
    ReturnStmt,
    Stmt,
    WhileStmt,
    walk_expr,
    walk_stmts,
)
from repro.interp.builtins import BUILTINS

_LOOP_TYPES = (ForStmt, WhileStmt, DoWhileStmt)

#: Ops eligible for reduction breaking (``-`` only with the accumulator on
#: the left: ``s = s - e`` is a sum of negated terms).
_REDUCTION_OPS = {"+", "-", "*"}
_INDUCTION_OPS = {"+", "-"}


@dataclass
class LoopDepInfo:
    """Dependence-breaking facts for one loop."""

    #: id(AssignStmt) -> (kind, old-value operand index in the binop)
    marked_updates: dict[int, tuple[str, int]] = field(default_factory=dict)


def _loop_body_stmts(loop: Stmt) -> list[Stmt]:
    """The statements that re-execute every iteration (body + for-step)."""
    if isinstance(loop, ForStmt):
        parts: list[Stmt] = [loop.body]
        if loop.step is not None:
            parts.append(loop.step)
        return parts
    if isinstance(loop, (WhileStmt, DoWhileStmt)):
        return [loop.body]
    raise TypeError(f"not a loop: {loop!r}")


def _direct_stmts(loop: Stmt):
    """All statements in the loop, *including* those in nested loops.

    Classification is relative to the innermost loop, so callers filter on
    innermost-ness separately; for assignment counting we want everything.
    """
    for part in _loop_body_stmts(loop):
        yield from walk_stmts(part)


def _stmt_exprs(stmt: Stmt):
    """The expressions ``stmt`` itself evaluates (not its sub-statements';
    an assignment's scalar target is a write, not a read)."""
    if isinstance(stmt, AssignStmt):
        yield stmt.value
        if isinstance(stmt.target, IndexExpr):
            yield from stmt.target.indices
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, DeclStmt):
        for decl in stmt.decls:
            if decl.init is not None:
                yield decl.init
    elif isinstance(stmt, (ForStmt, WhileStmt, DoWhileStmt, IfStmt)):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, ReturnStmt) and stmt.value is not None:
        yield stmt.value


def _scan_reads(expr: Expr, reads: Counter) -> bool:
    """Count scalar-name reads of ``expr`` into ``reads`` (array bases
    excluded); True when ``expr`` calls a user function."""
    calls_user = False
    for node in walk_expr(expr):
        if isinstance(node, NameExpr):
            reads[node.name] += 1
        elif isinstance(node, CallExpr) and node.callee not in BUILTINS:
            calls_user = True
    return calls_user


def _expr_reads_name(expr: Expr, name: str) -> bool:
    for node in walk_expr(expr):
        if isinstance(node, (NameExpr, IndexExpr)) and node.name == name:
            return True
    return False


def _is_loop_invariant(
    expr: Expr, scalar_writes: Counter, array_writes: set[str], calls_user: bool
) -> bool:
    """Conservative loop-invariance: no calls (which could read mutated
    globals) and no reads of anything written in the loop. When the loop
    calls a user function, every variable counts as written."""
    for node in walk_expr(expr):
        if isinstance(node, CallExpr):
            return False
        if isinstance(node, NameExpr) and (
            calls_user or scalar_writes[node.name] > 0
        ):
            return False
        if isinstance(node, IndexExpr) and (
            calls_user or node.name in array_writes
        ):
            return False
    return True


def _split_self_update(
    stmt: AssignStmt,
) -> tuple[str, int, Expr] | None:
    """Decompose a scalar self-update.

    Returns ``(op, old_operand_index, other_expr)`` where ``old_operand_index``
    is the position of the old value in the binop lowering will emit
    (0 = left, 1 = right), or None if the statement is not a self-update.
    """
    if not isinstance(stmt.target, NameExpr):
        return None
    name = stmt.target.name
    if stmt.op in ("+=", "-=", "*="):
        return (stmt.op[0], 0, stmt.value)
    if stmt.op != "=":
        return None
    value = stmt.value
    if not isinstance(value, BinaryExpr) or value.op not in _REDUCTION_OPS:
        return None
    left_is_var = isinstance(value.left, NameExpr) and value.left.name == name
    right_is_var = isinstance(value.right, NameExpr) and value.right.name == name
    if left_is_var and not _expr_reads_name(value.right, name):
        return (value.op, 0, value.right)
    if (
        right_is_var
        and value.op in ("+", "*")  # '-' with var on the right is not a sum
        and not _expr_reads_name(value.left, name)
    ):
        return (value.op, 1, value.left)
    return None


def _innermost_loop_map(loop: Stmt) -> dict[int, Stmt]:
    """Map id(stmt) -> innermost loop containing it, for stmts under ``loop``."""
    owner: dict[int, Stmt] = {}

    def visit(current_loop: Stmt) -> None:
        for part in _loop_body_stmts(current_loop):
            stack = [part]
            while stack:
                stmt = stack.pop()
                owner[id(stmt)] = current_loop
                if isinstance(stmt, _LOOP_TYPES):
                    visit(stmt)
                    continue  # children belong to the nested loop
                stack.extend(_children_of(stmt))

    visit(loop)
    return owner


def _children_of(stmt: Stmt) -> list[Stmt]:
    if isinstance(stmt, BlockStmt):
        return list(stmt.body)
    if isinstance(stmt, IfStmt):
        out = [stmt.then_body]
        if stmt.else_body is not None:
            out.append(stmt.else_body)
        return out
    return []


def analyze_loop_dependences(loop: Stmt) -> LoopDepInfo:
    """Analyze one loop (with respect to itself as the innermost loop).

    Statements nested in inner loops are classified by those loops'
    analyses, not this one.
    """
    if not isinstance(loop, _LOOP_TYPES):
        raise TypeError("analyze_loop_dependences expects a loop statement")

    info = LoopDepInfo()
    owner = _innermost_loop_map(loop)

    # One walk over every statement the loop re-executes: scalar names
    # assigned (count), array names written, and scalar reads per
    # statement, so the reduction rule can exclude the candidate
    # statement's own reads.
    scalar_writes: Counter = Counter()
    array_writes: set[str] = set()
    stmt_reads: dict[int, Counter] = {}
    calls_user = False
    for stmt in _direct_stmts(loop):
        if isinstance(stmt, AssignStmt):
            if isinstance(stmt.target, NameExpr):
                scalar_writes[stmt.target.name] += 1
            else:
                array_writes.add(stmt.target.name)
        elif isinstance(stmt, DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    scalar_writes[decl.name] += 1
        reads: Counter = Counter()
        for expr in _stmt_exprs(stmt):
            calls_user |= _scan_reads(expr, reads)
        stmt_reads[id(stmt)] = reads
    total_reads: Counter = Counter()
    for reads in stmt_reads.values():
        total_reads += reads
    # The analyzed loop's own condition also reads variables every iteration
    # (the canonical case: a for-loop's test reads its induction variable).
    if loop.cond is not None:
        calls_user |= _scan_reads(loop.cond, total_reads)

    for stmt in _direct_stmts(loop):
        if not isinstance(stmt, AssignStmt) or owner.get(id(stmt)) is not loop:
            continue

        self_update = _split_self_update(stmt)
        if self_update is not None:
            op, old_index, other = self_update
            name = stmt.target.name  # type: ignore[union-attr]
            if scalar_writes[name] != 1:
                continue
            is_invariant_step = op in _INDUCTION_OPS and _is_loop_invariant(
                other, scalar_writes, array_writes, calls_user
            )
            reads_elsewhere = (
                total_reads[name] - stmt_reads[id(stmt)][name]
            ) > 0
            if is_invariant_step:
                info.marked_updates[id(stmt)] = ("induction", old_index)
            elif not reads_elsewhere and op in _REDUCTION_OPS:
                info.marked_updates[id(stmt)] = ("reduction", old_index)
            continue

        target = stmt.target
        if isinstance(target, IndexExpr) and stmt.op in ("+=", "-=", "*="):
            # Histogram-style reduction into memory: safe to break the
            # old-value dependence as long as neither the indices nor the
            # value read the array being updated.
            reads_self = _expr_reads_name(stmt.value, target.name) or any(
                _expr_reads_name(index, target.name) for index in target.indices
            )
            if not reads_self:
                info.marked_updates[id(stmt)] = ("reduction", 0)

    return info


def analyze_function_dependences(body: Stmt) -> dict[int, tuple[str, int]]:
    """Run :func:`analyze_loop_dependences` once on every loop in a
    function body and merge the (disjoint) per-statement markings."""
    marked: dict[int, tuple[str, int]] = {}
    for stmt in walk_stmts(body):
        if isinstance(stmt, _LOOP_TYPES):
            marked.update(analyze_loop_dependences(stmt).marked_updates)
    return marked
