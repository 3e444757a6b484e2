"""Loop-carried dependence classification and the DOALL safety verdict.

For every natural loop this pass tags each *written scalar register* as
private, induction, reduction, or cross-iteration dependent, and runs a
conservative subscript test over every pair of memory accesses that may
touch the same object. The results condense into the
:class:`~repro.analysis.verdict.RegionVerdict` lattice.

Scalar side (def-use based)
    A register written in the loop is **private** when no path from the
    header reads it before writing it (nothing flows around the back
    edge). Otherwise it must match an induction (``i = i ± invariant``) or
    reduction (``s = s ⊕ expr``, no other in-loop use) update pattern, or
    it is a genuine **cross-iteration** scalar recurrence.

Memory side (affine subscript test)
    Array indices are reconstructed as affine expressions over the loop's
    induction variables, inner-loop induction variables (with value
    ranges), and loop invariants — resolved through *reaching
    definitions*, so a temporary reassigned elsewhere does not spoil the
    reconstruction. Two accesses to the same object carry a
    cross-iteration dependence only if ``stride·Δ = -D`` has an integer
    solution with iteration distance ``Δ ≠ 0``, where ``stride`` is the
    common per-iteration address advance and ``D`` the interval of the
    non-iteration terms. Distinct objects fall back to a may-alias model:
    array parameters may alias array parameters and global arrays of the
    same element type; ``alloca`` results alias nothing but themselves.
    Anything non-affine (e.g. an indirect ``count[keys[i]]`` histogram
    subscript) is an *uncharacterized* dependence -> ``UNSAFE``.

Side conditions
    Calls are resolved through interprocedural mod/ref summaries
    (:mod:`repro.analysis.summaries`): a summarizable callee's global
    and array-parameter effects are rebound through the call-site
    argument map and join the loop's access set as synthetic accesses
    (witness chains then walk through the call site into the callee).
    Unsummarizable calls (RNG/IO builtins, recursive cycles with
    effects, unresolvable objects) remain uncharacterized dependences;
    multiple loop exits (``break``) make the trip count data-dependent
    and cap the verdict at ``DOACROSS_ONLY``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.dataflow import (
    Definition,
    ReachingDefinitions,
    definitions_in_loop,
    upward_exposed_registers,
)
from repro.analysis.loops import Loop, LoopForest
from repro.analysis.verdict import DependenceWitness, RegionVerdict, Verdict
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Copy,
    Load,
    REDUCTION_OPS,
    Store,
    UnOp,
)
from repro.ir.module import Module
from repro.ir.types import ArrayType
from repro.ir.values import Constant, GlobalRef, Register, Value

#: builtins with no observable state (pure math); everything else
#: (``rand``/``srand``/``randf`` mutate RNG state, ``print`` does I/O)
#: carries a dependence between iterations.
PURE_BUILTINS = frozenset(
    {
        "sqrt", "fabs", "exp", "log", "sin", "cos", "floor", "ceil",
        "pow", "abs", "min", "max", "int", "float",
    }
)


class DepClass(enum.Enum):
    """Classification of one scalar register written inside a loop."""

    PRIVATE = "private"
    INDUCTION = "induction"
    REDUCTION = "reduction"
    CROSS_ITERATION = "cross-iteration"

    def __str__(self) -> str:
        return self.value


@dataclass
class ScalarInfo:
    """One written scalar's classification (plus evidence when carried)."""

    register: Register
    dep_class: DepClass
    witness: DependenceWitness | None = None

    @property
    def name(self) -> str:
        return self.register.name or repr(self.register)


@dataclass
class InductionVar:
    """An induction variable of one loop: ``reg = reg ± step`` per trip."""

    register: Register
    update: BinOp
    #: signed integer step, or None when the step is a symbolic invariant
    step: int | None
    #: constant initial value when every external reaching def is constant
    init: int | None = None
    #: inclusive value interval (None end = unbounded)
    lo: int | None = None
    hi: int | None = None


@dataclass
class MemAccess:
    """One memory access in the loop, with its resolved object and index.

    Besides direct Loads/Stores, a loop's access set contains *synthetic*
    accesses derived from callee mod/ref summaries: ``instr`` is then the
    Call, ``store`` carries the explicit direction, and ``trace`` holds
    the witness-chain hops walking through the call site into the callee.
    """

    instr: Load | Store | Call
    block: BasicBlock
    obj: "MemObject"
    #: affine image of the index (None = non-affine); scalar cells use
    #: the zero expression
    affine: "AffineExpr | None" = None
    #: explicit direction for call-derived accesses (None = from instr)
    store: bool | None = None
    #: interprocedural witness-chain hops (empty for direct accesses)
    trace: tuple = ()
    #: normalized reduction operator when the callee access is half of a
    #: recognized ``g = g ⊕ v`` update (from the summary)
    summary_op: str | None = None

    @property
    def is_store(self) -> bool:
        if self.store is not None:
            return self.store
        return isinstance(self.instr, Store)

    @property
    def role(self) -> str:
        return "store" if self.is_store else "load"

    @property
    def chain(self) -> list:
        """Witness-chain hops describing this access."""
        if self.trace:
            return list(self.trace)
        return [(f"{self.role} of {self.obj} here", self.instr.span)]


@dataclass(frozen=True)
class MemObject:
    """An abstract memory object for the may-alias model."""

    kind: str  # 'global' | 'alloca' | 'param' | 'unknown'
    name: str
    key: object
    element: object = None  # element type (arrays) or cell type (scalars)
    is_array: bool = False

    def __str__(self) -> str:
        return self.name


def may_alias(a: MemObject, b: MemObject) -> bool:
    if a.key == b.key:
        return True
    if a.kind == "unknown" or b.kind == "unknown":
        return True
    # Scalar global cells are distinct named objects; they never alias
    # arrays (MiniC has no address-of).
    if not (a.is_array and b.is_array):
        return False
    # A local alloca is a fresh object: nothing else names it.
    if a.kind == "alloca" or b.kind == "alloca":
        return False
    if a.kind == "global" and b.kind == "global":
        return False  # distinct globals are distinct objects
    # param vs param / param vs global array: the caller may have passed
    # the same array under both names — same element type only.
    return a.element == b.element


@dataclass
class LoopDependenceInfo:
    """Everything the classifier learned about one natural loop."""

    loop: Loop
    function: Function
    #: LOOP region id this natural loop corresponds to (-1 when the loop
    #: arrived without region annotations)
    region_id: int = -1
    scalars: dict[Register, ScalarInfo] = field(default_factory=dict)
    inductions: dict[Register, InductionVar] = field(default_factory=dict)
    #: reduction accumulators: source name -> update instruction
    reductions: dict[str, object] = field(default_factory=dict)
    accesses: list[MemAccess] = field(default_factory=list)
    witnesses: list[DependenceWitness] = field(default_factory=list)
    exit_count: int = 0
    impure_calls: list[Call] = field(default_factory=list)
    verdict: RegionVerdict = field(
        default_factory=lambda: RegionVerdict(Verdict.UNKNOWN)
    )

    def scalar_class(self, name: str) -> DepClass | None:
        """Classification of a source variable by name (tests/debugging)."""
        for info in self.scalars.values():
            if info.name == name:
                return info.dep_class
        return None


# ----------------------------------------------------------------------
# Affine index expressions
# ----------------------------------------------------------------------


@dataclass
class AffineExpr:
    """``const + Σ coeff·symbol``.

    A symbol is a :class:`Register` (an induction variable of this or an
    inner loop, or a register the loop never writes) or a
    :class:`Definition` (a single loop-external write that reaches the
    use — fixed for the whole loop execution, so it cancels between
    iterations like any invariant)."""

    terms: dict[object, int] = field(default_factory=dict)
    const: int = 0

    def add_term(self, symbol: object, coeff: int) -> None:
        if coeff == 0:
            return
        new = self.terms.get(symbol, 0) + coeff
        if new == 0:
            self.terms.pop(symbol, None)
        else:
            self.terms[symbol] = new

    @property
    def is_constant(self) -> bool:
        return not self.terms


def _combine(a: AffineExpr, b: AffineExpr, sign: int) -> AffineExpr:
    out = AffineExpr(dict(a.terms), a.const + sign * b.const)
    for symbol, coeff in b.terms.items():
        out.add_term(symbol, sign * coeff)
    return out


def _scale(a: AffineExpr, factor: int) -> AffineExpr:
    return AffineExpr(
        {s: c * factor for s, c in a.terms.items()}, a.const * factor
    )


@dataclass(frozen=True)
class BoundedSym:
    """An opaque value known only by its interval, re-sampled on every
    iteration of the analyzed loop.

    This is how a callee's *internal* loop variable appears after its
    index summary is rebound at a call site: ``fill(i)`` writing
    ``a[4·base + j]`` for ``j ∈ [0,3]`` becomes ``a[4·i + s]`` with
    ``s = BoundedSym(0, 3)``. Distinct tags never cancel — each call
    re-runs the callee loop, so two iterations sample independently."""

    lo: int
    hi: int
    tag: object = None


class _LoopContext:
    """Shared lookup tables for one loop's dependence analysis, over the
    function's :class:`~repro.analysis.facts.FunctionFacts`."""

    def __init__(self, facts, loop: Loop, summaries: dict):
        self.facts = facts
        self.loop = loop
        self.rd = facts.reaching
        #: interprocedural mod/ref summaries (name -> FunctionSummary)
        self.summaries = summaries
        self.defs_in_loop = facts.loop_defs[loop]
        #: loop blocks in function layout order (deterministic output)
        self.blocks = [b for b in facts.function.blocks if b in loop.blocks]
        #: induction variables of this loop
        self.inductions = facts.inductions[loop]
        #: induction variables of loops strictly inside this one
        self.inner_inductions: dict[Register, InductionVar] = {}
        stack = list(loop.children)
        while stack:
            inner = stack.pop()
            self.inner_inductions.update(facts.inductions[inner])
            stack.extend(inner.children)
        self._touched: list[tuple[object, MemObject, bool]] | None = None
        self.opaque = False

    # -- invariance and cell tests (dependence-breaking marks) ----------

    @property
    def touched(self) -> list[tuple[object, MemObject, bool]]:
        """``(instruction, object, is_store)`` for the loop's Loads and
        Stores and the mod/ref records of the user functions it calls
        (builtins touch no program memory). A callee whose effects cannot
        be enumerated sets ``opaque``: it may touch anything."""
        if self._touched is None:
            self._touched = []
            for block in self.blocks:
                for instr in block.instructions:
                    if isinstance(instr, (Load, Store)):
                        obj = _resolve_object(instr.mem, self.rd)
                        store = isinstance(instr, Store)
                        self._touched.append((instr, obj, store))
                    elif isinstance(instr, Call) and not instr.is_builtin:
                        self._touch_call(instr)
        return self._touched

    def _touch_call(self, call: Call) -> None:
        summary = self.summaries.get(call.callee)
        if summary is None or not summary.transparent:
            self.opaque = True
            return
        for seq, record in enumerate(summary.records):
            obj = _record_object(self.rd, call, record, seq)
            self._touched.append((call, obj, record.is_store))

    def invariant(
        self, value: Value, owner, _visiting: frozenset = frozenset()
    ) -> bool:
        """``value`` as ``owner`` uses it is the same in every iteration:
        a constant, a register the loop never writes, or one whose only
        reaching definition is a pure op on invariant operands or a Load
        at an invariant index of an object the loop never stores to."""
        if not isinstance(value, Register):
            return isinstance(value, Constant)
        if value not in self.defs_in_loop:
            return True
        defs = self.rd.reaching(owner, value)
        if len(defs) != 1:
            return False
        definition = next(iter(defs))
        if definition.block not in self.loop.blocks:
            return True  # no in-loop write reaches this use
        if definition in _visiting:
            return False
        instr = definition.instr
        visiting = _visiting | {definition}
        if isinstance(instr, (BinOp, UnOp, Copy, Cast)):
            return all(
                self.invariant(op, instr, visiting) for op in instr.operands
            )
        if not isinstance(instr, Load) or (
            instr.index is not None
            and not self.invariant(instr.index, instr, visiting)
        ):
            return False
        obj = _resolve_object(instr.mem, self.rd)
        touched = self.touched  # sets ``opaque``
        return not self.opaque and not any(
            store and may_alias(obj, other) for _, other, store in touched
        )

    def touches_cell(self, mem: Value, index: Value | None, own: tuple) -> bool:
        """Something besides ``own`` may access the cell ``mem[index]``: a
        Load or Store at the same index register (or of the same global
        scalar), or a callee that may touch the object at all."""
        obj = _resolve_object(mem, self.rd)
        for instr, other, _ in self.touched:
            if instr in own:
                continue
            if isinstance(instr, Call):
                if may_alias(obj, other):
                    return True
            elif _same_memory(instr.mem, mem) and instr.index is index:
                return True
        return self.opaque


    # -- affine reconstruction -----------------------------------------

    def affine_of(
        self, value: Value, owner, _visiting: frozenset = frozenset()
    ) -> AffineExpr | None:
        """Affine image of ``value`` as used by instruction ``owner``,
        resolved through reaching definitions; None when non-affine."""
        if isinstance(value, Constant):
            if isinstance(value.value, int):
                return AffineExpr(const=value.value)
            return None
        if not isinstance(value, Register):
            return None
        register = value
        if (
            register in self.inductions
            or register in self.inner_inductions
            or register not in self.defs_in_loop
        ):
            expr = AffineExpr()
            expr.add_term(register, 1)
            return expr
        # Written in the loop and not an induction variable: follow the
        # unique reaching definition, if there is one.
        defs = self.rd.reaching(owner, register)
        if len(defs) != 1:
            return None
        definition = next(iter(defs))
        if definition in _visiting:
            return None  # value cycles around the back edge
        if definition.is_parameter:
            expr = AffineExpr()
            expr.add_term(register, 1)
            return expr
        if definition.block not in self.loop.blocks:
            # A single loop-external write: fixed during the loop.
            expr = AffineExpr()
            expr.add_term(definition, 1)
            return expr
        instr = definition.instr
        visiting = _visiting | {definition}
        if isinstance(instr, Copy):
            return self.affine_of(instr.operand, instr, visiting)
        if isinstance(instr, BinOp) and instr.op in ("+", "-", "*"):
            lhs = self.affine_of(instr.lhs, instr, visiting)
            rhs = self.affine_of(instr.rhs, instr, visiting)
            if lhs is None or rhs is None:
                return None
            if instr.op in ("+", "-"):
                return _combine(lhs, rhs, 1 if instr.op == "+" else -1)
            if rhs.is_constant:
                return _scale(lhs, rhs.const)
            if lhs.is_constant:
                return _scale(rhs, lhs.const)
        return None

    def symbol_range(self, symbol) -> tuple[int | None, int | None]:
        """Known inclusive value range of a symbol inside this loop."""
        if isinstance(symbol, Register):
            info = self.inner_inductions.get(symbol) or self.inductions.get(
                symbol
            )
            if info is not None:
                return info.lo, info.hi
        return None, None


# ----------------------------------------------------------------------
# Induction-variable discovery
# ----------------------------------------------------------------------


def _single_in_loop_def(
    defs_in_loop: dict[Register, list[Definition]], register: Register
):
    defs = defs_in_loop.get(register, [])
    if len(defs) == 1:
        return defs[0].instr
    return None


def _match_self_update(
    defs_in_loop: dict[Register, list[Definition]],
    register: Register,
    ops: frozenset[str],
) -> tuple[BinOp, Value] | None:
    """Match ``t = r ⊕ x; r = copy t`` as the loop's only write to ``r``.

    ``⊕`` must be in ``ops``, and ``t`` must have a single in-loop
    definition. ``r`` may sit on the right only when ``⊕`` is
    commutative (anything but ``-``). Returns the update and ``x``.
    """
    defs = defs_in_loop[register]
    if len(defs) != 1 or not isinstance(defs[0].instr, Copy):
        return None
    source = defs[0].instr.operand
    if not isinstance(source, Register):
        return None
    update = _single_in_loop_def(defs_in_loop, source)
    if not isinstance(update, BinOp) or update.op not in ops:
        return None
    if update.lhs is register:
        return update, update.rhs
    if update.rhs is register and update.op != "-":
        return update, update.lhs
    return None


_INDUCTION_OPS = frozenset({"+", "-"})
_SCALAR_REDUCTION_OPS = REDUCTION_OPS | {"-"}
#: operators whose old-value operand the shadow update rule may ignore
_BREAK_OPS = frozenset({"+", "-", "*"})


def _detect_inductions(
    loop: Loop,
    rd: ReachingDefinitions,
    defs_in_loop: dict[Register, list[Definition]],
) -> dict[Register, InductionVar]:
    """Find ``r = r ± step`` updates where the loop writes ``r`` exactly
    once and ``step`` is a constant or a register the loop never writes,
    then bound each variable's value interval from its (constant) initial
    value and the loop bound."""
    out: dict[Register, InductionVar] = {}
    for register in defs_in_loop:
        match = _match_self_update(defs_in_loop, register, _INDUCTION_OPS)
        if match is None:
            continue
        update, other = match
        step: int | None = None
        if isinstance(other, Constant) and isinstance(other.value, int):
            step = other.value if update.op == "+" else -other.value
        elif not (
            isinstance(other, Register) and other not in defs_in_loop
        ):
            continue  # step must be loop-invariant
        info = InductionVar(register=register, update=update, step=step)
        _bound_induction(info, loop, rd)
        out[register] = info
    return out


def detect_loop_inductions(
    forest: LoopForest,
    rd: ReachingDefinitions,
    loop_defs: dict[Loop, dict[Register, list[Definition]]] | None = None,
) -> dict[Loop, dict[Register, InductionVar]]:
    """Induction variables of every loop in ``forest``, in forest order
    (``loop_defs``: each loop's :func:`definitions_in_loop`, if built)."""
    return {
        loop: _detect_inductions(
            loop,
            rd,
            loop_defs[loop] if loop_defs else definitions_in_loop(rd, loop),
        )
        for loop in forest.loops
    }


def detect_load_invariant_inductions(facts, summaries: dict) -> None:
    """Add to ``facts.inductions`` the ``r = r ± step`` updates whose step
    is invariant only through memory (:meth:`_LoopContext.invariant`),
    e.g. ``v += g`` where neither the loop nor a callee writes ``g``.
    Their step is symbolic, so they get no value interval."""
    for loop in facts.forest.loops:
        defs_in_loop, found = facts.loop_defs[loop], facts.inductions[loop]
        ctx = None
        for register in defs_in_loop:
            match = _match_self_update(defs_in_loop, register, _INDUCTION_OPS)
            if register in found or match is None:
                continue
            ctx = ctx or _LoopContext(facts, loop, summaries)
            if ctx.invariant(match[1], match[0]):
                found[register] = InductionVar(
                    register=register, update=match[0], step=None
                )


def _bound_induction(
    info: InductionVar, loop: Loop, rd: ReachingDefinitions
) -> None:
    """Fill in init and the value interval when they are statically known."""
    if info.step is None or info.step == 0:
        return
    inits: list[int] = []
    for definition in rd.external_reaching(loop, info.register):
        instr = definition.instr
        if (
            isinstance(instr, Copy)
            and isinstance(instr.operand, Constant)
            and isinstance(instr.operand.value, int)
        ):
            inits.append(instr.operand.value)
        else:
            return  # some unknown initial value
    if not inits:
        return
    info.init = inits[0] if len(set(inits)) == 1 else None

    bound = _loop_bound(info, loop, rd)
    if info.step > 0:
        info.lo = min(inits)
        if bound is not None:
            op, limit = bound
            if op in ("<", "<="):
                info.hi = limit - (1 if op == "<" else 0)
    else:
        info.hi = max(inits)
        if bound is not None:
            op, limit = bound
            if op in (">", ">="):
                info.lo = limit + (1 if op == ">" else 0)


def _loop_bound(
    info: InductionVar, loop: Loop, rd: ReachingDefinitions
) -> tuple[str, int] | None:
    """``(cmp-op, constant)`` from a ``branch (r CMP const)`` loop test."""
    from repro.ir.instructions import Branch

    for block in loop.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        exits_loop = any(
            successor not in loop.blocks
            for successor in terminator.successors
        )
        if not exits_loop or not isinstance(terminator.cond, Register):
            continue
        cond_defs = rd.reaching(terminator, terminator.cond)
        if len(cond_defs) != 1:
            continue
        cmp = next(iter(cond_defs)).instr
        if not isinstance(cmp, BinOp) or cmp.op not in ("<", "<=", ">", ">="):
            continue
        if cmp.lhs is info.register and isinstance(cmp.rhs, Constant):
            if isinstance(cmp.rhs.value, int):
                return cmp.op, cmp.rhs.value
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if cmp.rhs is info.register and isinstance(cmp.lhs, Constant):
            if isinstance(cmp.lhs.value, int):
                return flipped[cmp.op], cmp.lhs.value
    return None


# ----------------------------------------------------------------------
# Scalar classification
# ----------------------------------------------------------------------


def _scalar_classes(
    ctx: _LoopContext,
) -> dict[Register, tuple[DepClass, BinOp | None]]:
    """Class of every scalar register the loop writes, with the update
    BinOp of an induction or reduction variable (None for the others);
    computed once per loop (the marks and the analyzer both ask) and kept
    in the facts."""
    classes = ctx.facts.scalar_classes.get(ctx.loop)
    if classes is not None:
        return classes
    exposed = upward_exposed_registers(ctx.loop)
    reductions = _detect_scalar_reductions(ctx)
    out: dict[Register, tuple[DepClass, BinOp | None]] = {}
    for register in ctx.defs_in_loop:
        if isinstance(register.type, ArrayType):
            continue  # array references are covered by the memory side
        if register not in exposed:
            out[register] = (DepClass.PRIVATE, None)
        elif register in ctx.inductions:
            out[register] = (
                DepClass.INDUCTION, ctx.inductions[register].update
            )
        elif register in reductions:
            out[register] = (DepClass.REDUCTION, reductions[register])
        else:
            out[register] = (DepClass.CROSS_ITERATION, None)
    ctx.facts.scalar_classes[ctx.loop] = out
    return out


def _classify_scalars(ctx: _LoopContext, info: LoopDependenceInfo) -> None:
    for register, (dep_class, update) in _scalar_classes(ctx).items():
        witness = None
        if dep_class is DepClass.REDUCTION:
            info.reductions[register.name or repr(register)] = update
        elif dep_class is DepClass.CROSS_ITERATION:
            witness = _scalar_witness(
                ctx, register, ctx.defs_in_loop[register]
            )
            info.witnesses.append(witness)
        info.scalars[register] = ScalarInfo(register, dep_class, witness)


def _detect_scalar_reductions(ctx: _LoopContext) -> dict[Register, BinOp]:
    """``s = s ⊕ expr`` accumulators with no other in-loop use of ``s``."""
    out: dict[Register, BinOp] = {}
    uses: dict[Register, int] = {}
    for block in ctx.blocks:
        for owner in [*block.instructions, block.terminator]:
            if owner is None:
                continue
            for operand in owner.operands:
                if isinstance(operand, Register):
                    uses[operand] = uses.get(operand, 0) + 1
    for register in ctx.defs_in_loop:
        match = _match_self_update(
            ctx.defs_in_loop, register, _SCALAR_REDUCTION_OPS
        )
        # The accumulator's only in-loop use must be its own update.
        if match is not None and uses.get(register, 0) == 1:
            out[register] = match[0]
    return out


def _scalar_witness(
    ctx: _LoopContext, register: Register, defs
) -> DependenceWitness:
    name = register.name or repr(register)
    write = defs[0].instr
    # Find an in-loop read of the register for the chain's second hop.
    read_span = None
    for block in ctx.blocks:
        for owner in [*block.instructions, block.terminator]:
            if owner is None:
                continue
            if any(op is register for op in owner.operands):
                read_span = owner.span
                break
        if read_span is not None:
            break
    chain = [(f"'{name}' written here (iteration k)", write.span)]
    if read_span is not None:
        chain.append(
            (f"'{name}' read here before any write (iteration k+1)", read_span)
        )
    return DependenceWitness(
        kind="scalar-recurrence",
        description=(
            f"'{name}' carries a value across iterations and is neither "
            "an induction variable nor a reduction"
        ),
        chain=chain,
        distance=1,
    )


# ----------------------------------------------------------------------
# Memory-side analysis
# ----------------------------------------------------------------------


def _resolve_object(mem: Value, rd: ReachingDefinitions) -> MemObject:
    is_array = isinstance(mem.type, ArrayType)
    element = mem.type.element if is_array else mem.type
    if isinstance(mem, GlobalRef):
        return MemObject(
            "global", f"@{mem.name}", ("global", mem.name), element, is_array
        )
    if isinstance(mem, Register):
        name = mem.name or repr(mem)
        defs = rd.defs_of.get(mem, [])
        if len(defs) == 1:
            definition = defs[0]
            if definition.is_parameter:
                return MemObject(
                    "param", name, ("param", id(mem)), element, is_array
                )
            if isinstance(definition.instr, Alloca):
                return MemObject(
                    "alloca", name, ("alloca", id(mem)), element, is_array
                )
        return MemObject(
            "unknown", name, ("unknown", id(mem)), element, is_array
        )
    return MemObject("unknown", str(mem), ("unknown", id(mem)), None, is_array)


def _collect_accesses(ctx: _LoopContext, info: LoopDependenceInfo) -> None:
    for block in ctx.blocks:
        for instr in block.instructions:
            if isinstance(instr, (Load, Store)):
                obj = _resolve_object(instr.mem, ctx.rd)
                if instr.index is None:
                    affine: AffineExpr | None = AffineExpr()  # scalar
                else:
                    affine = ctx.affine_of(instr.index, instr)
                info.accesses.append(MemAccess(instr, block, obj, affine))
            elif isinstance(instr, Call) and not instr.is_builtin:
                _inline_summary_accesses(ctx, info, block, instr)


def _inline_summary_accesses(
    ctx: _LoopContext, info: LoopDependenceInfo, block: BasicBlock, call: Call
) -> None:
    """Project a transparent callee's mod/ref records into this loop's
    access set, rebinding index summaries through the call arguments."""
    summary = ctx.summaries.get(call.callee)
    if summary is None or not summary.transparent:
        return  # _analyze_calls reports the impure-call witness
    for seq, record in enumerate(summary.records):
        obj = _record_object(ctx.rd, call, record, seq)
        info.accesses.append(
            MemAccess(
                call,
                block,
                obj,
                _rebind_index(ctx, call, record.index, seq),
                store=record.is_store,
                trace=(
                    (f"call to '{call.callee}' here", call.span),
                    *record.trace,
                ),
                summary_op=record.reduction_op,
            )
        )


def _record_object(
    rd: ReachingDefinitions, call: Call, record, seq: int
) -> MemObject:
    """The caller-side object of a callee's mod/ref ``record`` (number
    ``seq`` of the summary) at ``call``."""
    if record.target[0] == "global":
        name = record.target[1]
        return MemObject(
            "global",
            f"@{name}",
            ("global", name),
            record.element,
            record.is_array,
        )
    k = record.target[1]
    if not isinstance(k, int) or k >= len(call.args):
        return MemObject("unknown", f"arg{k}", ("unknown", (id(call), seq)))
    return _resolve_object(call.args[k], rd)


def _rebind_index(
    ctx: _LoopContext, call: Call, index, seq: int
) -> AffineExpr | None:
    """Callee index summary -> caller-loop affine expression.

    Parameter terms become the affine images of the call arguments; the
    summary's slack interval becomes a fresh :class:`BoundedSym` so the
    subscript test samples it independently per iteration."""
    if index is None:
        return None
    out = AffineExpr(const=index.const)
    if (index.lo, index.hi) != (0, 0):
        out.add_term(BoundedSym(index.lo, index.hi, (id(call), seq)), 1)
    for k, coeff in index.terms:
        if k >= len(call.args):
            return None
        arg = ctx.affine_of(call.args[k], call)
        if arg is None:
            return None
        out = _combine(out, _scale(arg, coeff), 1)
    return out


def _difference_interval(
    ctx: _LoopContext, a: AffineExpr, b: AffineExpr
) -> tuple[int | None, int | None, int] | None:
    """Split ``a - b`` (evaluated at two different iterations of this
    loop) into a per-iteration stride and an interval for everything else.

    Returns ``(lo, hi, stride)`` such that the address difference between
    iteration ``k`` and ``k'`` is ``stride·(k - k') + D`` with
    ``D ∈ [lo, hi]`` (a None bound = unbounded); returns None when some
    term's behavior across iterations cannot be characterized.
    """
    stride_a = 0
    stride_b = 0
    lo: int | None = a.const - b.const
    hi: int | None = lo

    def widen(delta_lo: int | None, delta_hi: int | None) -> None:
        nonlocal lo, hi
        if lo is not None:
            lo = None if delta_lo is None else lo + delta_lo
        if hi is not None:
            hi = None if delta_hi is None else hi + delta_hi

    symbols = set(a.terms) | set(b.terms)
    for symbol in symbols:
        ca = a.terms.get(symbol, 0)
        cb = b.terms.get(symbol, 0)
        if isinstance(symbol, Register) and symbol in ctx.inductions:
            ind = ctx.inductions[symbol]
            if ind.step is None:
                return None  # symbolic stride: can't relate iterations
            stride_a += ca * ind.step
            stride_b += cb * ind.step
            # The variable's initial value is shared between the two
            # iterations: it cancels when the coefficients match.
            diff = ca - cb
            if diff != 0:
                if ind.init is not None:
                    widen(diff * ind.init, diff * ind.init)
                else:
                    widen(None, None)
            continue
        if isinstance(symbol, BoundedSym):
            # Callee-internal loop values: re-sampled independently from
            # their interval on each iteration of this loop (the callee
            # runs afresh per call), even for an access paired with
            # itself.
            if ca == 0 and cb == 0:
                continue
            samples = [
                ca * x1 - cb * x2
                for x1 in (symbol.lo, symbol.hi)
                for x2 in (symbol.lo, symbol.hi)
            ]
            widen(min(samples), max(samples))
            continue
        if isinstance(symbol, Register) and symbol in ctx.inner_inductions:
            # Inner-loop variables take two independent samples from
            # their value range at the two iterations.
            if ca == 0 and cb == 0:
                continue
            slo, shi = ctx.symbol_range(symbol)
            if slo is None or shi is None:
                widen(None, None)
                continue
            samples = [
                ca * x1 - cb * x2
                for x1 in (slo, shi)
                for x2 in (slo, shi)
            ]
            widen(min(samples), max(samples))
            continue
        # Shared loop-invariant symbol (an unwritten register, or a
        # unique loop-external definition): same value at both
        # iterations, so it cancels when the coefficients match.
        diff = ca - cb
        if diff != 0:
            widen(None, None)

    if stride_a != stride_b:
        return None  # the two accesses advance at different rates
    return lo, hi, stride_a


def _dependence_between(
    ctx: _LoopContext, a: MemAccess, b: MemAccess
) -> DependenceWitness | None:
    """Cross-iteration dependence between two accesses (≥1 store)."""
    if not may_alias(a.obj, b.obj):
        return None
    chain = [*a.chain, *b.chain]
    if a.obj.key != b.obj.key:
        return DependenceWitness(
            kind="may-alias",
            description=(
                f"{a.obj} and {b.obj} may name the same array; the "
                "accesses cannot be disambiguated"
            ),
            chain=chain,
        )
    if a.affine is None or b.affine is None:
        return DependenceWitness(
            kind="non-affine-subscript",
            description=(
                f"subscript of {a.obj} is not an affine function of the "
                "loop's induction variables (indirect or data-dependent "
                "indexing)"
            ),
            chain=chain,
        )
    split = _difference_interval(ctx, a.affine, b.affine)
    if split is None:
        return DependenceWitness(
            kind="array-dep",
            description=f"accesses to {a.obj} have unanalyzable strides",
            chain=chain,
        )
    lo, hi, stride = split
    if stride == 0:
        if lo == 0 and hi == 0:
            return DependenceWitness(
                kind="invariant-address",
                description=(
                    f"{a.obj} is accessed at the same (loop-invariant) "
                    "address in every iteration"
                ),
                chain=chain,
                distance=0,
            )
        if lo is not None and hi is not None and (lo > 0 or hi < 0):
            return None  # the addresses can never coincide
        return DependenceWitness(
            kind="array-dep",
            description=(
                f"accesses to {a.obj} do not advance with the loop and "
                "may collide across iterations"
            ),
            chain=chain,
        )
    # stride != 0: solve stride·Δ = -D for integer Δ ≠ 0, D ∈ [lo, hi].
    if lo is None or hi is None:
        return DependenceWitness(
            kind="array-dep",
            description=(
                f"accesses to {a.obj} may collide at an unknown "
                "iteration distance"
            ),
            chain=chain,
        )
    magnitude = abs(stride)
    m_min = -(-lo // magnitude)  # ceil(lo / |stride|)
    m_max = hi // magnitude  # floor(hi / |stride|)
    if m_min > m_max or (m_min == 0 and m_max == 0):
        return None  # only the same-iteration solution exists
    distance = None
    if lo == hi and lo % magnitude == 0:
        distance = abs(lo) // magnitude
    return DependenceWitness(
        kind="array-dep",
        description=(
            f"accesses to {a.obj} collide across iterations"
            + (f" at constant distance {distance}" if distance else "")
        ),
        chain=chain,
        distance=distance,
    )


def _same_memory(a: Value, b: Value) -> bool:
    if isinstance(a, GlobalRef) and isinstance(b, GlobalRef):
        return a.name == b.name
    return a is b


def cell_update(
    store: Store, rd: ReachingDefinitions
) -> tuple[BinOp, int, Load] | None:
    """Match ``store`` as the write half of ``cell = cell ⊕ v``.

    The stored value's only reaching definition must be a BinOp with a
    reduction operator (``-`` only with the old value on the left), and
    the old-value operand's only reaching definition a Load from the
    memory ``store`` writes. Returns the BinOp, the old value's operand
    index and the Load; whether the Load reads the same *element* is the
    caller's judgement (the same index register, or an affine proof)."""
    value = store.value
    if not isinstance(value, Register):
        return None
    defs = rd.reaching(store, value)
    if len(defs) != 1:
        return None
    update = next(iter(defs)).instr
    if not isinstance(update, BinOp) or update.op not in _SCALAR_REDUCTION_OPS:
        return None
    for side in (0,) if update.op == "-" else (0, 1):
        operand = update.operands[side]
        if not isinstance(operand, Register):
            continue
        old_defs = rd.reaching(update, operand)
        if len(old_defs) != 1:
            continue
        load = next(iter(old_defs)).instr
        if isinstance(load, Load) and _same_memory(load.mem, store.mem):
            return update, side, load
    return None


def _is_cell_reduction(
    ctx: _LoopContext, store: MemAccess, load: MemAccess
) -> bool:
    """``cell ⊕= v`` on a loop-invariant address: the stored value is a
    :func:`cell_update` of exactly this load.

    Call-derived pairs qualify when the callee summary flagged both
    halves of the update with the same operator at the same call site
    (reduction-through-call)."""
    if isinstance(store.instr, Call) or isinstance(load.instr, Call):
        # Call-derived synthetic accesses: only the summary's own
        # reduction marks qualify — there is no stored-value chain to
        # inspect on this side of the call.
        return (
            store.summary_op is not None
            and store.summary_op == load.summary_op
            and store.instr is load.instr
        )
    match = cell_update(store.instr, ctx.rd)
    return match is not None and match[2] is load.instr


def _analyze_memory(ctx: _LoopContext, info: LoopDependenceInfo) -> None:
    accesses = info.accesses
    reduction_pairs: set[int] = set()
    # First pass: recognize fixed-cell reduction pairs (s += v on a scalar
    # global, or a[j] += v with j loop-invariant) so they do not surface
    # as invariant-address dependences.
    for store in accesses:
        if not store.is_store or store.affine is None:
            continue
        for load in accesses:
            if load.is_store or load.obj.key != store.obj.key:
                continue
            if load.affine is None:
                continue
            split = _difference_interval(ctx, store.affine, load.affine)
            if split != (0, 0, 0):
                continue  # not provably the same fixed cell
            if not _is_cell_reduction(ctx, store, load):
                continue
            if not _only_reduction_accesses(info, store, load):
                continue
            reduction_pairs.add(id(store))
            reduction_pairs.add(id(load))
            info.reductions[store.obj.name.lstrip("@")] = store.instr

    reported: set[tuple] = set()
    for i, a in enumerate(accesses):
        for b in accesses[i:]:
            if not (a.is_store or b.is_store):
                continue
            if id(a) in reduction_pairs and id(b) in reduction_pairs:
                continue
            witness = _dependence_between(ctx, a, b)
            if witness is None:
                continue
            key = (witness.kind, a.obj.key, b.obj.key)
            if key in reported:
                continue
            reported.add(key)
            info.witnesses.append(witness)


def _only_reduction_accesses(
    info: LoopDependenceInfo, store: MemAccess, load: MemAccess
) -> bool:
    """The reduction cell's object is touched only by this update pair."""
    for access in info.accesses:
        if access.obj.key != store.obj.key:
            continue
        if access is store or access is load:
            continue
        return False
    return True


# ----------------------------------------------------------------------
# Calls and exits
# ----------------------------------------------------------------------


def _impure_call_witness(instr: Call, description: str) -> DependenceWitness:
    return DependenceWitness(
        kind="impure-call",
        description=description,
        chain=[(f"call to '{instr.callee}'", instr.span)],
    )


def _analyze_calls(ctx: _LoopContext, info: LoopDependenceInfo) -> None:
    for block in ctx.blocks:
        for instr in block.instructions:
            if not isinstance(instr, Call):
                continue
            if instr.is_builtin:
                if instr.callee in PURE_BUILTINS:
                    continue
                info.impure_calls.append(instr)
                info.witnesses.append(
                    _impure_call_witness(
                        instr,
                        f"builtin '{instr.callee}' has observable "
                        "state (RNG or I/O); iterations are ordered "
                        "through it",
                    )
                )
            else:
                summary = ctx.summaries.get(instr.callee)
                if summary is not None and summary.transparent:
                    continue  # effects already inlined as accesses
                reasons = (
                    "; ".join(summary.reasons)
                    if summary is not None and summary.reasons
                    else "no summary"
                )
                info.impure_calls.append(instr)
                info.witnesses.append(
                    _impure_call_witness(
                        instr,
                        f"call to '{instr.callee}' cannot be "
                        f"summarized ({reasons})",
                    )
                )


def _count_exits(loop: Loop) -> int:
    exits = 0
    for block in loop.blocks:
        terminator = block.terminator
        if terminator is None:
            continue
        for successor in terminator.successors:
            if successor not in loop.blocks:
                exits += 1
    return exits


# ----------------------------------------------------------------------
# Verdict assembly
# ----------------------------------------------------------------------

#: witness kinds that *characterize* the dependence (a known recurrence
#: shape): the loop remains pipelineable (DOACROSS). Array dependences
#: count as characterized only with a known constant distance.
_CHARACTERIZED = frozenset({"scalar-recurrence", "invariant-address"})


def _assemble_verdict(info: LoopDependenceInfo) -> RegionVerdict:
    witnesses = list(info.witnesses)
    uncharacterized = [
        w
        for w in witnesses
        if w.kind not in _CHARACTERIZED
        and not (w.kind == "array-dep" and w.distance is not None)
    ]
    if uncharacterized:
        return RegionVerdict(
            Verdict.UNSAFE,
            reduction_vars=tuple(sorted(info.reductions)),
            witnesses=witnesses,
        )
    if witnesses:
        return RegionVerdict(
            Verdict.DOACROSS_ONLY,
            reduction_vars=tuple(sorted(info.reductions)),
            witnesses=witnesses,
        )
    if info.exit_count > 1:
        header = info.loop.header
        span = (
            header.terminator.span
            if header.terminator is not None
            else header.instructions[0].span
        )
        witness = DependenceWitness(
            kind="early-exit",
            description=(
                "loop has data-dependent early exits; the trip count is "
                "only known by executing iterations in order"
            ),
            chain=[("loop with multiple exit edges", span)],
        )
        return RegionVerdict(
            Verdict.DOACROSS_ONLY,
            reduction_vars=tuple(sorted(info.reductions)),
            witnesses=[witness],
        )
    if info.reductions:
        return RegionVerdict(
            Verdict.SAFE_WITH_REDUCTION,
            reduction_vars=tuple(sorted(info.reductions)),
        )
    return RegionVerdict(Verdict.SAFE_DOALL)


def iterations_structurally_identical(info: LoopDependenceInfo) -> bool:
    """Every iteration of this loop executes the same instruction sequence.

    True when the loop body is straight-line — no inner loops, no branches
    beyond the loop's own exit test, no calls — and the dynamic runtime
    breaks exactly the dependences the static analysis discounted. Every
    induction update carries its :func:`mark_dependence_breaks` mark by
    construction, and so does every register reduction over ``+``, ``-``
    or ``*``; a loop with any other reduction (a memory cell, or a
    bitwise operator) is left out. For such loops a static safety verdict
    predicts the *dynamic* DOALL verdict too: balanced identical
    iterations with no cross-iteration dependences must measure
    self-parallelism ≈ iteration count. Imbalanced-but-safe loops (e.g.
    one heavy iteration behind an ``if``) are excluded — their measured
    self-parallelism legitimately collapses even though they are safe.
    """
    from repro.ir.instructions import Branch

    loop = info.loop
    if loop.children:
        return False
    branch_count = 0
    for block in loop.blocks:
        if isinstance(block.terminator, Branch):
            branch_count += 1
        for instr in block.instructions:
            if isinstance(instr, Call):
                return False
    if branch_count > 1:
        return False
    return all(
        isinstance(update, BinOp) and update.op in _BREAK_OPS
        for update in info.reductions.values()
    )


# ----------------------------------------------------------------------
# Dependence-breaking marks (paper §4.1)
# ----------------------------------------------------------------------


def mark_dependence_breaks(facts) -> None:
    """Put the §4.1 marks on every induction and reduction update:
    ``BinOp.dep_break`` names the class, ``break_operand`` the old value's
    operand, whose dependence the runtime ignores.

    Each update is judged in its innermost loop, from a module's
    :class:`~repro.analysis.facts.ModuleFacts`: a register the
    loop classifies as an induction or reduction variable marks its
    update, and so does a memory cell updated in place
    (:func:`_mark_cell_update`). Only ``+``, ``-`` and ``*`` are marked.
    """
    for function_facts in facts.functions.values():
        forest = function_facts.forest
        for loop in forest.loops:
            ctx = _LoopContext(function_facts, loop, facts.summaries)
            marks = {
                id(update): (dep_class.value, 0 if update.lhs is register else 1)
                for register, (dep_class, update) in _scalar_classes(ctx).items()
                if update is not None and update.op in _BREAK_OPS
            }
            for block in ctx.blocks:
                if forest.loop_of(block) is not loop:
                    continue
                for position, instr in enumerate(block.instructions):
                    if id(instr) in marks:
                        instr.dep_break, instr.break_operand = marks[id(instr)]
                    elif isinstance(instr, Store):
                        _mark_cell_update(ctx, block, position)


def _mark_cell_update(ctx: _LoopContext, block, position: int) -> None:
    """Mark ``cell = cell ⊕ v`` written by the store at ``position``: a
    global scalar loaded and combined earlier in the block, or an array
    element whose Load, ⊕ and Store at one index register stand back to
    back (the shape of ``a[i] ⊕= v``), with an index that does not read
    the array. Nothing else in the loop may access the cell. A global
    ``g ± invariant`` is an induction, any other cell a reduction."""
    store = block.instructions[position]
    match = cell_update(store, ctx.rd)
    if match is None:
        return
    update, old, load = match
    before = block.instructions[:position]
    if update.op not in _BREAK_OPS or load.index is not store.index:
        return
    if store.index is None:
        if update not in before or load not in before:
            return
    elif before[-2:] != [load, update] or _reads_memory(
        ctx, store.index, store, store.mem
    ):
        return
    if ctx.touches_cell(store.mem, store.index, (load, store)):
        return
    induction = (
        store.index is None
        and update.op in _INDUCTION_OPS
        and ctx.invariant(update.operands[1 - old], update)
    )
    update.dep_break = "induction" if induction else "reduction"
    update.break_operand = old


def _reads_memory(
    ctx: _LoopContext, value: Value, owner, mem: Value
) -> bool:
    """``value``, as ``owner`` uses it, is computed in the loop from a
    Load of ``mem``."""
    stack = [(value, owner)]
    seen: set = set()
    while stack:
        value, owner = stack.pop()
        if not isinstance(value, Register) or value not in ctx.defs_in_loop:
            continue
        for definition in ctx.rd.reaching(owner, value):
            instr = definition.instr
            if definition in seen or definition.block not in ctx.loop.blocks:
                continue
            seen.add(definition)
            if isinstance(instr, Load) and _same_memory(instr.mem, mem):
                return True
            stack.extend((operand, instr) for operand in instr.operands)
    return False


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def analyze_function_dependences(
    function: Function,
    module: Module,
    summaries: dict | None = None,
    facts=None,
) -> list[LoopDependenceInfo]:
    """Classify every natural loop of ``function``; innermost first.

    Calls to user functions resolve through ``summaries``, the mod/ref
    summaries of :func:`~repro.analysis.summaries.compute_module_summaries`
    (computed from ``module`` when not passed): a transparent callee
    contributes synthetic accesses, any other call an impure-call
    witness. ``summaries={}`` analyzes with no interprocedural facts.
    ``facts`` are the function's :class:`~repro.analysis.facts.FunctionFacts`,
    built here when the caller has not already built them.
    """
    if summaries is None:
        from repro.analysis.summaries import compute_module_summaries

        summaries = compute_module_summaries(module)
    if facts is None:
        from repro.analysis.facts import function_facts

        facts = function_facts(function, summaries)

    out: list[LoopDependenceInfo] = []
    for loop in facts.forest.loops:
        ctx = _LoopContext(facts, loop, summaries)
        info = LoopDependenceInfo(
            loop=loop,
            function=function,
            region_id=getattr(loop.header, "region_id", -1),
            inductions=ctx.inductions,
        )
        info.exit_count = _count_exits(loop)
        _classify_scalars(ctx, info)
        _collect_accesses(ctx, info)
        _analyze_memory(ctx, info)
        _analyze_calls(ctx, info)
        info.verdict = _assemble_verdict(info)
        out.append(info)
    return out
