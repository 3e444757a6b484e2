"""Source-to-source loop outlining for chunked DOALL execution.

The execution backend never re-implements the interpreter: it *rewrites
the program* so that each statically-safe loop (a **site**) can run a
contiguous sub-range of its iterations, then runs the rewritten program
through the ordinary engines — the same two engines, byte for byte,
that the differential matrix already cross-checks.

For each accepted site ``K`` the rewrite produces::

    {                                   // replaces the original loop
      int __kremlin_trip = 0;           // 1. counting pass (renamed
      for (int __kremlin_c = init; ...) //    induction, clobbers nothing)
          __kremlin_trip += 1;
      int __kremlin_hi =                // 2. rendezvous: partition +
          __kremlin_fork(K, __kremlin_trip, v0, v1, ...);
                                        //    dispatch; the free locals
                                        //    travel as arguments, and the
                                        //    master's bound comes back
      { int __kremlin_iter = 0;         // 3. masked loop: master runs
        for (init; cond; step) {        //    chunk 0 = (0, hi]; induction
          __kremlin_iter += 1;          //    vars still step through ALL
          if (iter <= __kremlin_hi)     //    iterations, so they end at
            <original body>;            //    their natural values
        } }
      __kremlin_join();                 // 4. rendezvous: merge partials
    }

plus an outlined ``void __kremlin_chunkK(int __kremlin_lo, int
__kremlin_hi, T0 v0, T1 v1, ...)`` holding a copy of the same loop guarded
by ``lo < iter <= hi``; workers call it with their chunk's bounds and the
shipped free locals.  Every rendezvous value travels through the ordinary
calling convention, so the rewrite declares no global.  Because
``__kremlin_fork`` without a policy returns the whole trip, the
transformed program run *as-is* is observably identical to the original —
that equivalence is what the serial-vs-parallel differential lane asserts.

Vetting is deliberately stricter than the static verdict: the verdict
proves iterations independent, but chunked masking additionally requires
that the trip count be recountable (canonical ``for`` shape, effect-free
init/cond/step) and that no loop-written scalar other than the counter be
observable after the loop.  Anything the vet refuses falls back to serial
execution with a recorded reason.  The vet also records each accepted
site's write set (``SiteSpec.writes``): the global arrays the loop may
store, read off the analyzer's accesses, which are the only arrays the
executor takes back from workers and merges.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.analysis.dependence import LoopDependenceInfo
from repro.analysis.driver import ModuleAnalysis, resolve_loop_region
from repro.analysis.verdict import tag_is_safe
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_program
from repro.frontend.source import SourceSpan
from repro.fuzz.render import render_program
from repro.instrument.compile import CompiledProgram
from repro.instrument.regions import StaticRegion
from repro.ir.instructions import BinOp, Store
from repro.ir.values import Register
from repro.parallel.reduction import ADDITIVE_OPS, INT_ONLY_OPS

#: every identifier the rewrite injects starts with this prefix; programs
#: that already use it are refused wholesale (name hygiene)
PREFIX = "__kremlin"


@dataclass(frozen=True)
class ReductionSpec:
    """One reduction accumulator of a site: a global scalar cell."""

    name: str
    op: str  # '+', '*', '&', '|', '^' (additive group collapses to '+')
    is_float: bool


@dataclass(frozen=True)
class SiteSpec:
    """One accepted (rewritten) loop site."""

    index: int
    region_id: int
    region_name: str
    function: str
    location: str
    verdict: str
    reductions: tuple[ReductionSpec, ...] = ()
    #: global arrays the loop may store, directly or through a callee's
    #: mod/ref summary, sorted: the only arrays workers return and the
    #: join merges
    writes: tuple[str, ...] = ()

    @property
    def chunk_function(self) -> str:
        return f"{PREFIX}_chunk{self.index}"


@dataclass(frozen=True)
class RefusedSite:
    """A statically-safe loop the vet would not execute in parallel."""

    region_id: int
    region_name: str
    location: str
    reason: str


@dataclass
class TransformResult:
    """Outcome of :func:`plan_transform`."""

    source: str | None  # rewritten source; None when no site was accepted
    filename: str
    sites: tuple[SiteSpec, ...] = ()
    refused: tuple[RefusedSite, ...] = ()

    @property
    def has_sites(self) -> bool:
        return bool(self.sites)


class _Refuse(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _stmt_exprs(stmt: ast.Stmt):
    """Top-level expressions of one statement (not recursing into
    sub-statements; pair with walk_stmts for full coverage)."""
    if isinstance(stmt, ast.DeclStmt):
        for decl in stmt.decls:
            if decl.init is not None:
                yield decl.init
    elif isinstance(stmt, ast.AssignStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ast.ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, ast.IfStmt):
        yield stmt.cond
    elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
        yield stmt.cond
    elif isinstance(stmt, ast.ForStmt):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, ast.ReturnStmt):
        if stmt.value is not None:
            yield stmt.value


def _name_nodes(node):
    """Every variable reference (``NameExpr``/``IndexExpr``) under a
    statement or expression."""
    if isinstance(node, ast.Expr):
        exprs = [node]
    else:
        exprs = [
            expr
            for stmt in ast.walk_stmts(node)
            for expr in _stmt_exprs(stmt)
        ]
    for expr in exprs:
        for sub in ast.walk_expr(expr):
            if isinstance(sub, (ast.NameExpr, ast.IndexExpr)):
                yield sub


def _names_in(node) -> set[str]:
    """Every variable name referenced under a statement or expression."""
    return {sub.name for sub in _name_nodes(node)}


def _has_call(expr: ast.Expr | None) -> bool:
    if expr is None:
        return False
    return any(isinstance(sub, ast.CallExpr) for sub in ast.walk_expr(expr))


def _decls_in(stmt: ast.Stmt) -> list[ast.VarDecl]:
    out: list[ast.VarDecl] = []
    for sub in ast.walk_stmts(stmt):
        if isinstance(sub, ast.DeclStmt):
            out.extend(sub.decls)
    return out


def _rename(node, old: str, new: str) -> None:
    """Rename every reference to ``old`` in place (exprs under ``node``)."""
    for sub in _name_nodes(node):
        if sub.name == old:
            sub.name = new


def _spans_equal(a: SourceSpan, b: SourceSpan) -> bool:
    return (
        a.start.line == b.start.line
        and a.start.column == b.start.column
        and a.end.line == b.end.line
        and a.end.column == b.end.column
    )


def _spans_overlap(a: SourceSpan, b: SourceSpan) -> bool:
    return not (a.end.line < b.start.line or b.end.line < a.start.line)


def _find_loop(func: ast.FuncDecl, span: SourceSpan) -> ast.Stmt | None:
    for stmt in ast.walk_stmts(func.body):
        if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            if _spans_equal(stmt.span, span):
                return stmt
    return None


def _loop_exits_early(loop: ast.ForStmt) -> bool:
    """True when the loop body can break out of *this* loop or return."""

    def scan(stmt: ast.Stmt) -> bool:
        if isinstance(stmt, ast.ReturnStmt):
            return True
        if isinstance(stmt, ast.BreakStmt):
            return True
        if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoWhileStmt)):
            # a break in a nested loop exits that loop, not ours — but a
            # return anywhere still exits ours
            return any(
                isinstance(sub, ast.ReturnStmt)
                for sub in ast.walk_stmts(stmt)
            )
        if isinstance(stmt, ast.BlockStmt):
            return any(scan(child) for child in stmt.body)
        if isinstance(stmt, ast.IfStmt):
            if scan(stmt.then_body):
                return True
            return stmt.else_body is not None and scan(stmt.else_body)
        return False

    return scan(loop.body)


# ----------------------------------------------------------------------
# Canonical loop shape
# ----------------------------------------------------------------------


@dataclass
class _CanonicalLoop:
    counter: str
    counter_type: ast.TypeName
    #: True when the counter is declared by the loop init itself
    declares_counter: bool
    init_expr: ast.Expr


def _canonicalize(loop: ast.Stmt) -> _CanonicalLoop:
    if not isinstance(loop, ast.ForStmt):
        return _refuse("not a canonical counted for-loop")
    if loop.init is None or loop.cond is None or loop.step is None:
        return _refuse("for-loop is missing init, cond, or step")
    init = loop.init
    if isinstance(init, ast.DeclStmt):
        if len(init.decls) != 1:
            return _refuse("for-loop init declares more than one variable")
        decl = init.decls[0]
        if decl.init is None:
            return _refuse("for-loop counter has no initializer")
        counter, counter_type, declares, init_expr = (
            decl.name,
            decl.type,
            True,
            decl.init,
        )
    elif isinstance(init, ast.AssignStmt):
        if not isinstance(init.target, ast.NameExpr) or init.op != "=":
            return _refuse("for-loop init is not a plain counter assignment")
        counter = init.target.name
        counter_type = ast.TypeName("int")  # refined by the env resolver
        declares, init_expr = False, init.value
    else:
        return _refuse("for-loop init is not a declaration or assignment")
    if counter in _names_in(init_expr):
        return _refuse("for-loop init reads its own counter")
    if _has_call(init_expr) or _has_call(loop.cond):
        return _refuse("for-loop init/cond contains a call")
    step = loop.step
    if not isinstance(step, ast.AssignStmt) or not isinstance(
        step.target, ast.NameExpr
    ):
        return _refuse("for-loop step is not a counter update")
    if step.target.name != counter:
        return _refuse("for-loop step updates a different variable")
    if step.op == "=":
        value = step.value
        ok = (
            isinstance(value, ast.BinaryExpr)
            and value.op in ("+", "-")
            and (
                (isinstance(value.left, ast.NameExpr) and value.left.name == counter)
                or (
                    value.op == "+"
                    and isinstance(value.right, ast.NameExpr)
                    and value.right.name == counter
                )
            )
        )
        if not ok:
            return _refuse("for-loop step is not counter = counter +/- expr")
    elif step.op not in ("+=", "-="):
        return _refuse(f"for-loop step operator {step.op!r} is not monotone")
    if _has_call(step.value):
        return _refuse("for-loop step contains a call")
    return _CanonicalLoop(counter, counter_type, declares, init_expr)


def _refuse(reason: str):
    raise _Refuse(reason)


# ----------------------------------------------------------------------
# Vetting
# ----------------------------------------------------------------------


def _loop_info_for(
    program: CompiledProgram, analysis: ModuleAnalysis, region: StaticRegion
) -> LoopDependenceInfo | None:
    function = analysis.functions.get(region.function_name)
    if function is None:
        return None
    for info in function.loops:
        if resolve_loop_region(program.regions, info) == region.id:
            return info
    return None


def _check_live_out(
    info: LoopDependenceInfo, analysis: ModuleAnalysis, fname: str
) -> None:
    """Refuse when any loop-written non-induction scalar is read after the
    loop (its masked-master value would be chunk 0's, not the serial
    last-iteration value)."""
    rd = analysis.functions[fname].reaching
    loop_blocks = info.loop.blocks
    written = set(info.scalars.keys())
    exempt = set(info.inductions.keys())
    function = info.function
    for block in function.blocks:
        if block in loop_blocks:
            continue
        owners = list(block.instructions)
        if block.terminator is not None:
            owners.append(block.terminator)
        for owner in owners:
            for operand in owner.operands:
                if not isinstance(operand, Register):
                    continue
                if operand not in written or operand in exempt:
                    continue
                try:
                    defs = rd.reaching(owner, operand)
                except KeyError:
                    _refuse(
                        f"cannot prove scalar '{operand.name}' dead after loop"
                    )
                if any(d.block in loop_blocks for d in defs):
                    _refuse(
                        f"loop-written scalar '{operand.name or operand}' "
                        "is live after the loop"
                    )


#: reduction operators the executor combines exactly (the additive group
#: collapses to '+': a worker partial of ``s -= x`` already carries the sign)
_COMBINABLE_OPS = ADDITIVE_OPS | {"*"} | INT_ONLY_OPS


def _reduction_op(
    info: LoopDependenceInfo, analysis: ModuleAnalysis, fname: str, name: str
) -> str:
    """The combining operator of global reduction cell ``name``, read off
    the analyzer's update: the cell's store, whose value's single
    reaching definition is the combining ``BinOp``."""
    store = info.reductions[name]
    if not isinstance(store, Store):
        # reduction-through-call: the update is inside the callee
        _refuse(f"reduction '{name}' has no visible update")
    defs = analysis.functions[fname].reaching.reaching(store, store.value)
    update = next(iter(defs)).instr if len(defs) == 1 else None
    if not isinstance(update, BinOp):
        _refuse(f"reduction '{name}' has an uncombinable update form")
    if update.op not in _COMBINABLE_OPS:
        _refuse(f"reduction '{name}' uses operator {update.op!r}")
    return "+" if update.op in ADDITIVE_OPS else update.op


@dataclass
class _SitePlan:
    spec: SiteSpec
    region: StaticRegion
    loop: ast.ForStmt
    canonical: _CanonicalLoop
    #: free local scalars to ship to workers, (name, type) sorted by name
    env: list[tuple[str, ast.TypeName]] = field(default_factory=list)


def _vet_site(
    program: CompiledProgram,
    analysis: ModuleAnalysis,
    original: ast.Program,
    region: StaticRegion,
    allow_float_reductions: bool,
    index: int,
) -> _SitePlan:
    fname = region.function_name
    try:
        func = original.function(fname)
    except KeyError:
        _refuse(f"no function {fname!r} in source")
    loop = _find_loop(func, region.span)
    if loop is None:
        _refuse("loop statement not found at region span")
    canonical = _canonicalize(loop)
    info = _loop_info_for(program, analysis, region)
    if info is None:
        _refuse("no dependence info for loop")
    if info.exit_count > 1:
        _refuse("loop has multiple exits")
    if info.impure_calls:
        _refuse("loop calls impure functions")
    if _loop_exits_early(loop):
        _refuse("loop body can break or return")

    # Masking discipline: the masked master loop executes init/cond/step
    # for every iteration but the body only for chunk 0, so any scalar the
    # *body* advances (a secondary induction like j += 2) would desync.
    for register in info.inductions:
        if (register.name or "") != canonical.counter:
            _refuse(
                f"secondary induction variable "
                f"'{register.name or register}' advances in the body"
            )
    if canonical.counter not in {r.name for r in info.inductions}:
        _refuse(f"counter '{canonical.counter}' is not a proven induction")

    _check_live_out(info, analysis, fname)

    # All array traffic must hit global storage: globals are shipped to
    # workers and the arrays the loop stores are merged back; locals have
    # no transport.
    stores_global = False
    writes: set[str] = set()
    for access in info.accesses:
        if access.obj.kind != "global":
            _refuse(
                f"array access to non-global object '{access.obj.name}'"
            )
        if access.is_store:
            stores_global = True
            if access.obj.is_array:
                writes.add(access.obj.key[1])

    # Reductions: global int cells with a single visible operator group.
    global_scalars = {
        g.name: g.type for g in original.globals if not g.type.is_array
    }
    func_decl_names = {d.name for d in _decls_in(func.body)} | {
        p.name for p in func.params
    }
    specs: list[ReductionSpec] = []
    for name in sorted(info.reductions):
        if name not in global_scalars:
            # a local accumulator: only acceptable when dead after the
            # loop, which _check_live_out already proved
            continue
        if name in func_decl_names:
            _refuse(f"reduction global '{name}' is shadowed by a local")
        op = _reduction_op(info, analysis, fname, name)
        is_float = global_scalars[name].base == "float"
        if is_float and not allow_float_reductions:
            _refuse(
                f"float reduction '{name}' refused for bit-exactness "
                "(see docs/PARALLEL.md)"
            )
        if is_float and op in INT_ONLY_OPS:
            _refuse(f"bitwise reduction '{name}' on a float cell")
        specs.append(ReductionSpec(name, op, is_float))
        stores_global = True
    if not stores_global:
        # No observable global effect: running this in parallel cannot
        # help, and skipping it closes the policy-reentry window for
        # sites inside pure functions (see docs/PARALLEL.md).
        _refuse("loop has no global side effects")

    # Free locals the chunk must import. The counter is handled
    # separately (chunks re-declare it); globals travel via state
    # shipping; anything else must be a uniquely-declared scalar local.
    declared_inside = {d.name for d in _decls_in(loop)}
    global_names = {g.name for g in original.globals}
    free = _names_in(loop) - declared_inside - {canonical.counter}
    decl_types: dict[str, list[ast.TypeName]] = {}
    for param in func.params:
        decl_types.setdefault(param.name, []).append(param.type)
    outside_decls = [
        d for d in _decls_in(func.body) if d.name not in declared_inside
    ]
    for decl in _decls_in(func.body):
        if decl.name in declared_inside and any(
            o.name == decl.name for o in outside_decls
        ):
            _refuse(f"'{decl.name}' is declared both inside and outside the loop")
    for decl in outside_decls:
        decl_types.setdefault(decl.name, []).append(decl.type)
    env: list[tuple[str, ast.TypeName]] = []
    for name in sorted(free):
        types = decl_types.get(name)
        if name in global_names:
            if types:
                # the outlined chunk would read the global where the
                # loop may read the local
                _refuse(f"free variable '{name}' shadows a global")
            continue
        if not types:
            _refuse(f"cannot resolve free variable '{name}'")
        bases = {t.base for t in types} | {
            "array" for t in types if t.is_array
        }
        if len(bases) != 1:
            _refuse(f"free variable '{name}' has conflicting declarations")
        if types[0].is_array:
            _refuse(f"free variable '{name}' is a local array")
        env.append((name, ast.TypeName(types[0].base)))
    if not canonical.declares_counter:
        types = decl_types.get(canonical.counter)
        if not types or types[0].is_array:
            _refuse(f"cannot resolve counter '{canonical.counter}'")
        canonical.counter_type = ast.TypeName(types[0].base)

    spec = SiteSpec(
        index=index,
        region_id=region.id,
        region_name=region.name,
        function=region.function_name,
        location=region.location,
        verdict=region.verdict,
        reductions=tuple(specs),
        writes=tuple(sorted(writes)),
    )
    return _SitePlan(spec, region, loop, canonical, env)


# ----------------------------------------------------------------------
# Rewrite
# ----------------------------------------------------------------------


def _int_type() -> ast.TypeName:
    return ast.TypeName("int")


def _int_decl(span: SourceSpan, name: str, init: ast.Expr) -> ast.DeclStmt:
    return ast.DeclStmt(span, [ast.VarDecl(span, name, _int_type(), init)])


def _build_guarded_loop(
    span: SourceSpan, loop: ast.ForStmt, lower: bool
) -> ast.BlockStmt:
    """``{ int __kremlin_iter = 0; for (...) { iter += 1; if (lo < iter
    <= hi) body; } }`` — mutates ``loop`` (wraps its body). Without
    ``lower`` the guard is ``iter <= hi`` (the master's chunk starts at 0).
    """
    iter_name = f"{PREFIX}_iter"
    guard = ast.BinaryExpr(
        span,
        "<=",
        ast.NameExpr(span, iter_name),
        ast.NameExpr(span, f"{PREFIX}_hi"),
    )
    if lower:
        guard = ast.BinaryExpr(
            span,
            "&&",
            ast.BinaryExpr(
                span,
                ">",
                ast.NameExpr(span, iter_name),
                ast.NameExpr(span, f"{PREFIX}_lo"),
            ),
            guard,
        )
    loop.body = ast.BlockStmt(
        span,
        [
            ast.AssignStmt(
                span,
                ast.NameExpr(span, iter_name),
                "+=",
                ast.IntLiteral(span, 1),
            ),
            ast.IfStmt(span, guard, loop.body),
        ],
    )
    return ast.BlockStmt(
        span, [_int_decl(span, iter_name, ast.IntLiteral(span, 0)), loop]
    )


def _build_counting_loop(
    span: SourceSpan, loop: ast.ForStmt, canonical: _CanonicalLoop
) -> list[ast.Stmt]:
    """``int trip = 0; for (T __kremlin_c = init; cond'; step') trip +=
    1;`` with the counter renamed so the pass clobbers nothing."""
    counter_name = f"{PREFIX}_c"
    trip = f"{PREFIX}_trip"
    init_expr = copy.deepcopy(canonical.init_expr)
    cond = copy.deepcopy(loop.cond)
    step = copy.deepcopy(loop.step)
    _rename(cond, canonical.counter, counter_name)
    assert isinstance(step, ast.AssignStmt)
    step.target = ast.NameExpr(span, counter_name)
    _rename(step.value, canonical.counter, counter_name)
    count_init = ast.DeclStmt(
        span,
        [
            ast.VarDecl(
                span,
                counter_name,
                ast.TypeName(canonical.counter_type.base),
                init_expr,
            )
        ],
    )
    bump = ast.AssignStmt(
        span, ast.NameExpr(span, trip), "+=", ast.IntLiteral(span, 1)
    )
    return [
        _int_decl(span, trip, ast.IntLiteral(span, 0)),
        ast.ForStmt(span, count_init, cond, step, bump),
    ]


def _build_master_block(plan: _SitePlan, masked: ast.ForStmt) -> ast.BlockStmt:
    span = plan.loop.span
    stmts = _build_counting_loop(span, masked, plan.canonical)
    fork_args: list[ast.Expr] = [
        ast.IntLiteral(span, plan.spec.index),
        ast.NameExpr(span, f"{PREFIX}_trip"),
    ]
    fork_args += [ast.NameExpr(span, name) for name, _type in plan.env]
    stmts.append(
        _int_decl(
            span, f"{PREFIX}_hi", ast.CallExpr(span, f"{PREFIX}_fork", fork_args)
        )
    )
    stmts.append(_build_guarded_loop(span, masked, lower=False))
    stmts.append(
        ast.ExprStmt(span, ast.CallExpr(span, f"{PREFIX}_join", []))
    )
    return ast.BlockStmt(span, stmts)


def _build_chunk_function(
    plan: _SitePlan, pristine: ast.ForStmt
) -> ast.FuncDecl:
    span = plan.loop.span
    params = [
        ast.Param(span, f"{PREFIX}_lo", _int_type()),
        ast.Param(span, f"{PREFIX}_hi", _int_type()),
    ]
    params += [ast.Param(span, name, type_name) for name, type_name in plan.env]
    body: list[ast.Stmt] = []
    if not plan.canonical.declares_counter:
        body.append(
            ast.DeclStmt(
                span,
                [
                    ast.VarDecl(
                        span,
                        plan.canonical.counter,
                        ast.TypeName(plan.canonical.counter_type.base),
                        None,
                    )
                ],
            )
        )
    body.append(_build_guarded_loop(span, pristine, lower=True))
    return ast.FuncDecl(
        span,
        plan.spec.chunk_function,
        ast.TypeName("void"),
        params,
        ast.BlockStmt(span, body),
    )


def _replace_stmt(
    stmt: ast.Stmt, span: SourceSpan, replacement: ast.Stmt
) -> ast.Stmt:
    if isinstance(stmt, ast.ForStmt) and _spans_equal(stmt.span, span):
        return replacement
    if isinstance(stmt, ast.BlockStmt):
        stmt.body = [
            _replace_stmt(child, span, replacement) for child in stmt.body
        ]
    elif isinstance(stmt, ast.IfStmt):
        stmt.then_body = _replace_stmt(stmt.then_body, span, replacement)
        if stmt.else_body is not None:
            stmt.else_body = _replace_stmt(stmt.else_body, span, replacement)
    elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
        stmt.body = _replace_stmt(stmt.body, span, replacement)
    return stmt


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _candidate_regions(program: CompiledProgram, plan) -> list[StaticRegion]:
    """Candidate loop regions, highest priority first."""
    out: list[StaticRegion] = []
    seen: set[int] = set()
    if plan is not None:
        for item in plan:
            region = item.region
            if not region.is_loop or region.id in seen:
                continue
            if not tag_is_safe(item.static_verdict) or item.refuted:
                continue
            seen.add(region.id)
            out.append(region)
    for region in program.regions.loops():
        if region.id in seen:
            continue
        if tag_is_safe(region.verdict):
            seen.add(region.id)
            out.append(region)
    return out


def plan_transform(
    program: CompiledProgram,
    plan=None,
    *,
    allow_float_reductions: bool = False,
) -> TransformResult:
    """Rewrite ``program``'s source for chunked execution of its safe
    loops.

    ``plan`` (a :class:`~repro.planner.plan.ParallelismPlan`) prioritizes
    candidates; without one, every statically-safe loop region is
    considered in region order.  Returns the rewritten source plus
    accepted/refused site records; ``source`` is None when nothing was
    accepted (caller runs the original serially).
    """
    if program.analysis is None:
        return TransformResult(None, program.filename)
    if PREFIX in program.source:
        return TransformResult(
            None,
            program.filename,
            refused=(
                RefusedSite(-1, "<program>", program.filename,
                            f"source already uses the {PREFIX} prefix"),
            ),
        )
    original = parse_program(program.source, program.filename)
    transformed = copy.deepcopy(original)
    accepted: list[_SitePlan] = []
    refused: list[RefusedSite] = []
    for region in _candidate_regions(program, plan):
        overlap = next(
            (
                site_plan.spec.region_name
                for site_plan in accepted
                if site_plan.region.function_name == region.function_name
                and _spans_overlap(site_plan.region.span, region.span)
            ),
            None,
        )
        if overlap is not None:
            refused.append(
                RefusedSite(
                    region.id,
                    region.name,
                    region.location,
                    f"overlaps executed site {overlap}",
                )
            )
            continue
        try:
            accepted.append(
                _vet_site(
                    program,
                    program.analysis,
                    original,
                    region,
                    allow_float_reductions,
                    len(accepted),
                )
            )
        except _Refuse as refusal:
            refused.append(
                RefusedSite(
                    region.id, region.name, region.location, refusal.reason
                )
            )
    if not accepted:
        return TransformResult(
            None, program.filename, refused=tuple(refused)
        )

    for site_plan in accepted:
        func = transformed.function(site_plan.region.function_name)
        masked = _find_loop(func, site_plan.region.span)
        assert isinstance(masked, ast.ForStmt)
        pristine = copy.deepcopy(masked)
        master = _build_master_block(site_plan, masked)
        func.body = _replace_stmt(func.body, site_plan.region.span, master)
        transformed.functions.append(_build_chunk_function(site_plan, pristine))
    return TransformResult(
        source=render_program(transformed),
        filename=program.filename,
        sites=tuple(site_plan.spec for site_plan in accepted),
        refused=tuple(refused),
    )
