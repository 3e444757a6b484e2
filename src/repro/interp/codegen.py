"""Ahead-of-time compiler: MiniC IR to native Python functions.

Each MiniC function compiles to ONE Python function whose

* registers are plain locals (``r3``, not ``regs[3]``),
* straight-line segments are single generated blocks with no dispatch,
* branches and natural loops are native ``if``/``while True`` control flow
  (with ``continue``/``break`` for back edges and loop exits), and
* calls are direct Python calls between the generated functions.

Two flavors share the structurer and the statement generators:

* **plain** (``observer=None``) additionally performs *quickening* —
  forward-substituting single-use pure results into the immediately
  following consumer, so hot opcode pairs like compare+branch fuse into
  ``if r1 < r2:`` with no materialized 0/1 temp. Substitution is restricted
  to adjacent, provably reorder-safe pairs (no ``/ %`` sources or
  consumers, exactly one read, same block), so observable behavior —
  including error ordering — is unchanged.
* **fused** bakes the :class:`~repro.kremlib.profiler.KremlinProfiler`
  hook bodies in at codegen time and runs a *symbolic timestamp algebra*
  over each straight-line segment (:class:`_SymTS`): per-event timestamp
  vectors stay symbolic — a const floor plus per-source offsets over the
  segment's resolved shadow entries — and only materialize when stored
  past a flush point. Dead shadow stores are elided by block liveness,
  consumed (dominated) events are skipped in the region fold, and the
  entry-resolution cache survives region boundaries it provably cannot
  invalidate. All of it is value-exact: serialized profiles stay
  bit-identical to the tree engine's (the differential suite, fuzz
  matrix, and codegen-smoke CI job enforce it). Quickening is disabled in
  this flavor: every register write also writes its shadow. With metrics
  on, the only difference in the generated source is one counter
  increment line per counted quantity at each segment flush.

Structuring is best-effort with hard safety rails: reducible CFGs from the
MiniC lowerer structure exactly (branch joins come from the postdominator
tree, loops from the natural-loop forest); anything that does not — or
that would exceed the bounded code-duplication budget, Python's nesting
limits, or the loop-depth guard — falls back to a per-function dispatch
loop (``while True: if _b == k: ...``). A whole-module retry with forced
dispatch guards against ``compile()`` rejecting deeply nested output.

Generated source is **instance-independent**: interpreter-specific objects
(global array storages, scalar cells, the interpreter itself) are referred
to by reserved names (``_go_{name}``/``_ga_{name}``/``_gid_{name}``,
``cells``, ``interp``) bound into the exec environment by
:class:`repro.interp.runtime.CompiledEngine` at prepare time. Program-
scoped objects (spans, string constants, builtin impls) live in the unit's
``program_env``. Units are therefore cached per ``CompiledProgram`` keyed
by flavor/budget/depth/metrics — code that mutates the IR must recompile
from a fresh program, exactly like re-running ``kremlin_cc``.
"""

from __future__ import annotations

import re
import time

from repro.analysis.dominators import postdominator_tree
from repro.analysis.loops import find_natural_loops
from repro.interp.builtins import BUILTINS
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import _MAX_CALL_DEPTH, _global_key
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Copy,
    Jump,
    Load,
    RegionEnter,
    RegionExit,
    Ret,
    Store,
    UnOp,
)
from repro.ir.types import FLOAT, INT, ArrayType
from repro.ir.values import Constant, GlobalRef, Register, StringConst

_PAD = "    "

# Source templates for the side-effect-free binary ops; division and
# modulo raise and carry C truncation semantics, so they get dedicated
# multi-statement templates in the generators below.
_PURE_BINOP_EXPRS = {
    "+": "{a} + {b}",
    "-": "{a} - {b}",
    "*": "{a} * {b}",
    "<": "1 if {a} < {b} else 0",
    "<=": "1 if {a} <= {b} else 0",
    ">": "1 if {a} > {b} else 0",
    ">=": "1 if {a} >= {b} else 0",
    "==": "1 if {a} == {b} else 0",
    "!=": "1 if {a} != {b} else 0",
    "&": "{a} & {b}",
    "|": "{a} | {b}",
    "^": "{a} ^ {b}",
    "<<": "{a} << {b}",
    ">>": "{a} >> {b}",
    "&&": "1 if ({a} != 0 and {b} != 0) else 0",
    "||": "1 if ({a} != 0 or {b} != 0) else 0",
}

# Ops whose results may be forward-substituted (quickened) into the next
# consumer: pure and non-raising on type-checked operands. Division,
# modulo, and shifts stay materialized — they raise, so reordering their
# evaluation past a consumer's own checks would change which error wins.
_FUSABLE_BINOPS = frozenset(
    {"+", "-", "*", "&", "|", "^", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
)

# Raw boolean-context forms used only in branch-condition position, where
# ``(1 if a < b else 0) != 0`` is exactly ``a < b`` (NaN included) and
# ``(1 if (a != 0 and b != 0) else 0) != 0`` is exactly the bare test.
_RAW_COND_TEMPLATES = {
    "<": "{a} < {b}",
    "<=": "{a} <= {b}",
    ">": "{a} > {b}",
    ">=": "{a} >= {b}",
    "==": "{a} == {b}",
    "!=": "{a} != {b}",
    "&&": "({a} != 0 and {b} != 0)",
    "||": "({a} != 0 or {b} != 0)",
}

# Structurer safety rails: Python rejects ~20 statically nested blocks and
# deep inlining duplicates code, so anything past these bounds takes the
# dispatch-loop fallback instead.
_MAX_INDENT = 40
_MAX_LOOP_NESTING = 16

# Index operands that may be repeated verbatim in the fast/slow bounds
# check arms without changing evaluation count: bare locals and
# non-negative integer literals.
_SIMPLE_INDEX_RE = re.compile(r"(?:r\d+|_gv\d+|\d+)\Z")


def _is_inline_literal(value) -> bool:
    """Can this constant be spliced into generated source as a literal?"""
    if type(value) is int:
        return True
    if type(value) is float:
        # repr() round-trips finite floats; inf/nan aren't literals.
        return value == value and value not in (float("inf"), float("-inf"))
    return False


def _block_totals(block) -> tuple[int, int]:
    """(retired instructions, total cost) of one basic block."""
    retired = len(block.instructions) + 1
    cost = sum(i.cost for i in block.instructions) + block.terminator.cost
    return retired, cost


class _Unstructured(Exception):
    """CFG shape the structurer won't express natively; use dispatch."""


class _LoopFrame:
    """One ``while True:`` currently open during structured emission."""

    __slots__ = ("loop", "exits", "var", "parent")

    def __init__(self, loop, var: str, parent):
        self.loop = loop
        self.exits: list = []
        self.var = var
        self.parent = parent

    def exit_index(self, target) -> int:
        for k, block in enumerate(self.exits):
            if block is target:
                return k
        self.exits.append(target)
        return len(self.exits) - 1

    @property
    def nesting(self) -> int:
        depth = 1
        frame = self.parent
        while frame is not None:
            depth += 1
            frame = frame.parent
        return depth


def _register_read_counts(function) -> dict[int, int]:
    """How many times each register index is read anywhere in the
    function (operand positions of instructions and terminators)."""
    counts: dict[int, int] = {}
    for block in function.blocks:
        for instr in block.instructions:
            for op in getattr(instr, "operands", ()):
                if type(op) is Register:
                    counts[op.index] = counts.get(op.index, 0) + 1
        for op in getattr(block.terminator, "operands", ()):
            if type(op) is Register:
                counts[op.index] = counts.get(op.index, 0) + 1
    return counts


def _register_write_counts(function) -> dict[int, int]:
    """How many times each register index is written (params count as one
    write; every instruction result counts as one per occurrence)."""
    counts: dict[int, int] = {}
    for p in function.params:
        counts[p.index] = counts.get(p.index, 0) + 1
    for block in function.blocks:
        for instr in block.instructions:
            result = getattr(instr, "result", None)
            if result is not None and type(result) is Register:
                counts[result.index] = counts.get(result.index, 0) + 1
    return counts


class _FunctionEmitter:
    """Compiles one function to generated source (plain flavor)."""

    fused = False

    def __init__(self, m: "_ModuleEmitter", function):
        self.m = m
        self.function = function
        self.budget = m.budget
        self.forest = find_natural_loops(function)
        self.ipdom = postdominator_tree(function).idom
        self.emitting: set[int] = set()
        self.emissions = 0
        self.max_emissions = 2 * len(function.blocks) + 8
        self.next_exit_var = 0
        self.r_used: set[int] = set()
        self.pending_val: dict[int, str] = {}
        self.pending_raw: dict[int, str] = {}
        self.read_counts = _register_read_counts(function)
        self.write_counts = _register_write_counts(function)
        self.fallback = False
        # Locals beat the shared counts list when no budget needs a live
        # global view; single-block functions flush literals directly.
        self.uses_ir = (
            not self.fused
            and m.budget is None
            and len(function.blocks) > 1
        )
        # Deferred retired/cost totals: with no budget watching counts[0],
        # block totals accumulate at codegen time and flush as a single
        # pair of adds per control-flow departure instead of per block.
        self.pend_ir = 0
        self.pend_ct = 0
        # Loop-invariant scalar globals currently cached in locals, one
        # map per open loop (innermost last).
        self.hoist_maps: list[dict[str, str]] = []
        self._next_gv = 0
        # Single-assignment array registers whose .data/len/element kind
        # can be cached at the definition: index -> (data, size, is_int).
        self.arr_cache: dict[int, tuple[str, str, bool]] = {}
        self.arr_cache_used: set[int] = set()
        self._param_cache_lines: dict[int, list[str]] = {}
        self._collect_array_caches()

    def _collect_array_caches(self) -> None:
        fn = self.function
        for p in fn.params:
            if not isinstance(p.type, ArrayType):
                continue
            if self.write_counts.get(p.index, 0) != 1:
                continue
            data = f"_da{p.index}"
            lines = [f"{data} = r{p.index}.data"]
            count = p.type.element_count
            if count is not None:
                size = str(count)
            else:
                size = f"_dl{p.index}"
                lines.append(f"{size} = len({data})")
            self.arr_cache[p.index] = (data, size, p.type.element == INT)
            self._param_cache_lines[p.index] = lines
        for block in fn.blocks:
            for instr in block.instructions:
                if type(instr) is not Alloca:
                    continue
                res = instr.result.index
                if self.write_counts.get(res, 0) != 1:
                    continue
                self.arr_cache[res] = (
                    f"_da{res}",
                    str(instr.array_type.element_count),
                    instr.array_type.element == INT,
                )

    def _arr_info(self, mem, rendered: str):
        """Cached (data, size, is_int) for a local-array access, or None.

        Only valid when the access goes through the register itself (not
        a quickened substitute expression)."""
        if type(mem) is not Register or rendered != f"r{mem.index}":
            return None
        info = self.arr_cache.get(mem.index)
        if info is not None:
            self.arr_cache_used.add(mem.index)
        return info

    # -- entry point -------------------------------------------------------

    def emit(self) -> list[str]:
        body: list[str] = []
        if self.m.force_fallback:
            self.fallback = True
            self._emit_dispatch(body)
        else:
            try:
                self._emit_into(body, self.function.entry, None, None, 1)
            except _Unstructured:
                self.fallback = True
                body = []
                self._reset_state()
                self._emit_dispatch(body)
        return self._assemble(body)

    def _reset_state(self) -> None:
        self.emitting.clear()
        self.emissions = 0
        self.pending_val.clear()
        self.pending_raw.clear()
        self.pend_ir = 0
        self.pend_ct = 0
        self.hoist_maps.clear()
        self.arr_cache_used.clear()

    def _assemble(self, body: list[str]) -> list[str]:
        fn = self.function
        params = [p.index for p in fn.params]
        pieces = [f"r{i}" for i in params]
        if self.fused:
            pieces += [f"s{i}" for i in params]
        pieces.append("_d")
        lines = [f"def _mc_{fn.name}({', '.join(pieces)}):"]
        lines.append(_PAD + f"if _d > {_MAX_CALL_DEPTH}:")
        lines.append(_PAD + "    raise InterpreterError(")
        lines.append(_PAD + "        'call stack exhausted (runaway recursion?)')")
        if self.fused:
            lines.append(_PAD + "control = []")
        r_init = sorted(self.r_used - set(params))
        if r_init:
            lines.append(
                _PAD + " = ".join(f"r{i}" for i in r_init) + " = None"
            )
        if self.fused:
            s_init = sorted(self.s_used - set(params))
            if s_init:
                lines.append(
                    _PAD + " = ".join(f"s{i}" for i in s_init) + " = None"
                )
        for i in sorted(self._param_cache_lines):
            if i in self.arr_cache_used:
                for line in self._param_cache_lines[i]:
                    lines.append(_PAD + line)
        if self.uses_ir:
            lines.append(_PAD + "_ir = 0")
            lines.append(_PAD + "_ct = 0")
        lines += body
        return lines

    # -- structured emission ----------------------------------------------

    def _emit_into(self, out, block, stop, frame, indent) -> None:
        if indent > _MAX_INDENT or self.emissions > self.max_emissions:
            raise _Unstructured()
        self.emissions += 1
        loop = self.forest.loop_of(block)
        current = frame.loop if frame is not None else None
        if loop is not current:
            if (
                loop is not None
                and loop.header is block
                and loop.parent is current
            ):
                self._emit_loop(out, loop, stop, frame, indent)
                return
            raise _Unstructured()  # irreducible entry / level skip
        self._emit_block(out, block, stop, frame, indent)

    def _emit_loop(self, out, loop, stop, frame, indent) -> None:
        var = f"_x{self.next_exit_var}"
        self.next_exit_var += 1
        nf = _LoopFrame(loop, var, frame)
        if nf.nesting > _MAX_LOOP_NESTING:
            raise _Unstructured()
        pad = _PAD * indent
        self._flush_counts(out, pad)
        hoist = self._loop_hoist(loop)
        for name, local in hoist.items():
            out.append(pad + f"{local} = cells[{name!r}]")
        body: list[str] = []
        self.hoist_maps.append(hoist)
        try:
            self._emit_into(body, loop.header, None, nf, indent + 1)
        finally:
            self.hoist_maps.pop()
        exits = nf.exits
        if len(exits) == 1:
            # Single exit target: the dispatch var is dead, strip it.
            marker = f"{var} = 0"
            body = [line for line in body if line.strip() != marker]
        out.append(pad + "while True:")
        out += body
        if not exits:
            return  # genuinely infinite loop: nothing ever follows
        if len(exits) == 1:
            self._goto(out, exits[0], stop, frame, indent)
            return
        for k, target in enumerate(exits):
            sub: list[str] = []
            self._goto(sub, target, stop, frame, indent + 1)
            keyword = "if" if k == 0 else "elif"
            out.append(pad + f"{keyword} {var} == {k}:")
            out += sub if sub else [pad + _PAD + "pass"]

    def _goto(self, out, target, stop, frame, indent) -> None:
        pad = _PAD * indent
        if target is stop:
            # Falls through to wherever the join is emitted; the join is
            # shared between arms, so deferred counts settle here.
            self._flush_counts(out, pad)
            return
        if frame is not None:
            if target is frame.loop.header:
                self._flush_counts(out, pad)
                out.append(pad + "continue")
                return
            if target not in frame.loop.blocks:
                self._flush_counts(out, pad)
                k = frame.exit_index(target)
                out.append(pad + f"{frame.var} = {k}")
                out.append(pad + "break")
                return
        if id(target) in self.emitting:
            raise _Unstructured()  # cycle the loop forest didn't cover
        self._emit_into(out, target, stop, frame, indent)

    def _emit_block(self, out, block, stop, frame, indent) -> None:
        block_id = id(block)
        self.emitting.add(block_id)
        try:
            frag: list[str] = []
            self._gen_head(frag, block)
            self._gen_instructions(frag, block)
            pad = _PAD * indent
            out += [pad + line for line in frag]
            self._gen_terminator(out, block, stop, frame, indent)
        finally:
            self.emitting.discard(block_id)

    def _gen_terminator(self, out, block, stop, frame, indent) -> None:
        term = block.terminator
        retired, cost = _block_totals(block)
        pad = _PAD * indent
        if type(term) is Ret:
            frag = self._ret_block_lines(term, retired, cost)
            out += [pad + line for line in frag]
            return
        frag = []
        self._preterm(frag, block, term)
        self._counts_nonret(frag, retired, cost)
        out += [pad + line for line in frag]
        if type(term) is Jump:
            self._goto(out, term.target, stop, frame, indent)
            return
        if type(term) is Branch:
            self._emit_branch(out, block, term, stop, frame, indent)
            return
        raise InterpreterError(
            f"unknown terminator {type(term).__name__}", term.span
        )

    def _emit_branch(self, out, block, term, stop, frame, indent) -> None:
        cond = self._cond_src(term.cond)
        join = self.ipdom.get(block)
        inline = join is not None and join is not stop
        arm_stop = join if inline else stop
        # Each arm inherits the same deferred-count balance and settles it
        # on its own path; the shared join below restarts from zero.
        saved = (self.pend_ir, self.pend_ct)
        then_sub: list[str] = []
        self._goto(then_sub, term.then_block, arm_stop, frame, indent + 1)
        self.pend_ir, self.pend_ct = saved
        else_sub: list[str] = []
        self._goto(else_sub, term.else_block, arm_stop, frame, indent + 1)
        self.pend_ir = 0
        self.pend_ct = 0
        pad = _PAD * indent
        if then_sub and else_sub:
            out.append(pad + f"if {cond}:")
            out += then_sub
            out.append(pad + "else:")
            out += else_sub
        elif then_sub:
            out.append(pad + f"if {cond}:")
            out += then_sub
        elif else_sub:
            out.append(pad + f"if not ({cond}):")
            out += else_sub
        # both arms empty: degenerate branch straight to the join
        if inline:
            self._goto(out, join, stop, frame, indent)

    # -- dispatch-loop fallback --------------------------------------------

    def _emit_dispatch(self, out: list[str]) -> None:
        fn = self.function
        keys = {id(block): k for k, block in enumerate(fn.blocks)}
        pad2 = _PAD * 2
        pad3 = _PAD * 3
        out.append(_PAD + f"_b = {keys[id(fn.entry)]}")
        out.append(_PAD + "while True:")
        for k, block in enumerate(fn.blocks):
            out.append(pad2 + f"if _b == {k}:")
            frag: list[str] = []
            self._gen_head(frag, block)
            self._gen_instructions(frag, block)
            term = block.terminator
            retired, cost = _block_totals(block)
            if type(term) is Ret:
                frag += self._ret_block_lines(term, retired, cost)
            else:
                self._preterm(frag, block, term)
                self._counts_nonret(frag, retired, cost)
                self._flush_counts(frag, "")
                if type(term) is Jump:
                    frag.append(f"_b = {keys[id(term.target)]}")
                    frag.append("continue")
                elif type(term) is Branch:
                    cond = self._cond_src(term.cond)
                    then_key = keys[id(term.then_block)]
                    else_key = keys[id(term.else_block)]
                    frag.append(
                        f"_b = {then_key} if {cond} else {else_key}"
                    )
                    frag.append("continue")
                else:
                    raise InterpreterError(
                        f"unknown terminator {type(term).__name__}",
                        term.span,
                    )
            out += [pad3 + line for line in frag]

    # -- per-block pieces --------------------------------------------------

    def _gen_head(self, frag: list[str], block) -> None:
        if self.budget is not None:
            frag.append(f"if counts[0] > {self.budget}:")
            frag.append(
                "    raise InterpreterError('instruction budget exceeded')"
            )

    def _gen_instructions(self, frag: list[str], block) -> None:
        instrs = [i for i in block.instructions if not self._skip_instr(i)]
        for pos, instr in enumerate(instrs):
            nxt = (
                instrs[pos + 1]
                if pos + 1 < len(instrs)
                else block.terminator
            )
            self._gen_instr(frag, instr, nxt)

    def _skip_instr(self, instr) -> bool:
        # Region markers have no semantic effect when nothing observes
        # them; block totals still count them as retired.
        cls = type(instr)
        return cls is RegionEnter or cls is RegionExit

    def _counts_nonret(self, frag: list[str], retired, cost) -> None:
        if self.uses_ir:
            self.pend_ir += retired
            self.pend_ct += cost
        else:
            frag.append(f"counts[0] += {retired}")
            frag.append(f"counts[1] += {cost}")

    def _flush_counts(self, out: list[str], pad: str) -> None:
        """Settle the deferred block totals before control leaves the
        straight-line region they were accumulated over."""
        if self.pend_ir or self.pend_ct:
            out.append(pad + f"_ir += {self.pend_ir}")
            out.append(pad + f"_ct += {self.pend_ct}")
            self.pend_ir = 0
            self.pend_ct = 0

    def _loop_hoist(self, loop) -> dict[str, str]:
        """Scalar globals read but never written inside ``loop`` (and with
        no user call that could write them): cache them in locals for the
        loop's duration. Builtins cannot touch global cells."""
        if self.fused:
            return {}
        loads: list[str] = []
        killed: set[str] = set()
        for block in self.function.blocks:
            if block not in loop.blocks:
                continue
            for instr in block.instructions:
                cls = type(instr)
                if cls is Load or cls is Store:
                    mem = instr.mem
                    if type(mem) is GlobalRef and not self.m.is_array_global(
                        mem.name
                    ):
                        if cls is Load:
                            loads.append(mem.name)
                        else:
                            killed.add(mem.name)
                elif cls is Call and not instr.is_builtin:
                    return {}
        hoist: dict[str, str] = {}
        for name in loads:
            if name in killed or name in hoist or self._hoisted(name):
                continue
            self._next_gv += 1
            hoist[name] = f"_gv{self._next_gv}"
        return hoist

    def _hoisted(self, name: str) -> str | None:
        for mapping in reversed(self.hoist_maps):
            local = mapping.get(name)
            if local is not None:
                return local
        return None

    def _preterm(self, frag: list[str], block, term) -> None:
        """Hook: profiling work before the counts/transfer (fused only)."""

    def _ret_block_lines(self, term, retired, cost) -> list[str]:
        frag: list[str] = []
        if self.uses_ir:
            frag.append(f"counts[0] += _ir + {self.pend_ir + retired}")
            frag.append(f"counts[1] += _ct + {self.pend_ct + cost}")
            self.pend_ir = 0
            self.pend_ct = 0
        else:
            frag.append(f"counts[0] += {retired}")
            frag.append(f"counts[1] += {cost}")
        if self.budget is not None:
            frag.append(f"if counts[0] > {self.budget}:")
            frag.append(
                "    raise InterpreterError('instruction budget exceeded')"
            )
        if term.value is None:
            frag.append("return None")
            return frag
        frag.append(f"v = {self._operand(term.value)}")
        frag += self._ret_conversion_lines()
        frag.append("return v")
        return frag

    def _ret_conversion_lines(self) -> list[str]:
        return_type = self.function.return_type
        if return_type == INT:
            return ["if v is not None:", "    v = int(v)"]
        if return_type == FLOAT:
            return ["if v is not None:", "    v = float(v)"]
        return []

    # -- operands and quickening -------------------------------------------

    def _operand(self, operand) -> str:
        if type(operand) is Register:
            pending = self.pending_val.pop(operand.index, None)
            if pending is not None:
                self.pending_raw.pop(operand.index, None)
                return pending
            self.r_used.add(operand.index)
            return f"r{operand.index}"
        if type(operand) is Constant:
            if _is_inline_literal(operand.value):
                return repr(operand.value)
            return self.m.const_name(operand.value)
        if type(operand) is StringConst:
            # "str" prefix: "_s{n}" would collide with the fused
            # emitter's timestamp temporaries (_ts_name).
            return self.m._name(operand.value, "str")
        if type(operand) is GlobalRef:
            if self.m.is_array_global(operand.name):
                return self.m.global_obj(operand.name)
            return f"cells[{operand.name!r}]"
        raise InterpreterError(f"cannot evaluate operand {operand!r}")

    def _cond_src(self, cond) -> str:
        if type(cond) is Register:
            raw = self.pending_raw.pop(cond.index, None)
            if raw is not None:
                self.pending_val.pop(cond.index, None)
                return raw
        return f"({self._operand(cond)}) != 0"

    def _can_pend(self, instr, nxt) -> bool:
        if self.fused:
            return False
        result = instr.result
        if result is None or type(result) is not Register:
            return False
        index = result.index
        if self.read_counts.get(index, 0) != 1:
            return False
        reads = sum(
            1
            for op in getattr(nxt, "operands", ())
            if type(op) is Register and op.index == index
        )
        if reads != 1:
            return False
        # Div/mod consumers check their divisor before evaluating other
        # operands; substitution would reorder errors past that check.
        if type(nxt) is BinOp and nxt.op in ("/", "%"):
            return False
        return True

    # -- statement generators ----------------------------------------------

    def _post_compute(self, frag: list[str], instr) -> None:
        """Hook: the on_compute/on_builtin event (fused only)."""

    def _gen_instr(self, frag: list[str], instr, nxt) -> None:
        cls = type(instr)
        if cls is BinOp:
            self._gen_binop(frag, instr, nxt)
        elif cls is Load:
            self._gen_load(frag, instr, nxt)
        elif cls is Store:
            self._gen_store(frag, instr)
        elif cls is Copy:
            self._gen_copy(frag, instr, nxt)
        elif cls is Cast:
            self._gen_cast(frag, instr, nxt)
        elif cls is UnOp:
            self._gen_unop(frag, instr, nxt)
        elif cls is Call:
            if instr.is_builtin:
                self._gen_builtin(frag, instr)
            else:
                self._gen_user_call(frag, instr)
        elif cls is Alloca:
            count = instr.array_type.element_count
            assert count is not None
            is_int = instr.array_type.element == INT
            res = instr.result.index
            frag.append(f"r{res} = ArrayStorage({count}, {is_int})")
            if res in self.arr_cache:
                frag.append(f"_da{res} = r{res}.data")
            self._post_compute(frag, instr)
        else:
            raise InterpreterError(
                f"unknown instruction {cls.__name__}", instr.span
            )

    def _gen_binop(self, frag: list[str], instr, nxt) -> None:
        op = instr.op
        a = self._operand(instr.lhs)
        b = self._operand(instr.rhs)
        res = instr.result.index
        template = _PURE_BINOP_EXPRS.get(op)
        if template is not None:
            value = template.format(a=a, b=b)
            if op in _FUSABLE_BINOPS and self._can_pend(instr, nxt):
                self.pending_val[res] = f"({value})"
                raw = _RAW_COND_TEMPLATES.get(op)
                if raw is not None:
                    self.pending_raw[res] = raw.format(a=a, b=b)
                return
            frag.append(f"r{res} = {value}")
            self._post_compute(frag, instr)
            return
        span = self.m._name(instr.span, "sp")
        if op == "/":
            frag += [
                f"b = {b}",
                "if b == 0:",
                f"    raise InterpreterError('division by zero', {span})",
                f"a = {a}",
                "if isinstance(a, int) and isinstance(b, int):",
                "    q = abs(a) // abs(b)",
                f"    r{res} = -q if (a < 0) != (b < 0) else q",
                "else:",
                f"    r{res} = a / b",
            ]
        elif op == "%":
            frag += [
                f"b = {b}",
                "if b == 0:",
                f"    raise InterpreterError('modulo by zero', {span})",
                f"a = {a}",
                "q = abs(a) // abs(b)",
                "if (a < 0) != (b < 0):",
                "    q = -q",
                f"r{res} = a - q * b",
            ]
        else:
            raise InterpreterError(
                f"unknown binary operator {op!r}", instr.span
            )
        self._post_compute(frag, instr)

    def _gen_copy(self, frag: list[str], instr, nxt) -> None:
        value = self._operand(instr.operand)
        res = instr.result.index
        if self._can_pend(instr, nxt):
            self.pending_val[res] = f"({value})"
            return
        frag.append(f"r{res} = {value}")
        self._post_compute(frag, instr)

    def _gen_cast(self, frag: list[str], instr, nxt) -> None:
        conv = "int" if instr.target == INT else "float"
        value = f"{conv}({self._operand(instr.operand)})"
        res = instr.result.index
        if self._can_pend(instr, nxt):
            self.pending_val[res] = value
            return
        frag.append(f"r{res} = {value}")
        self._post_compute(frag, instr)

    def _gen_unop(self, frag: list[str], instr, nxt) -> None:
        operand = self._operand(instr.operand)
        res = instr.result.index
        if instr.op == "-":
            value, raw = f"-({operand})", None
        else:  # '!'
            value = f"0 if ({operand}) else 1"
            raw = f"(not ({operand}))"
        if self._can_pend(instr, nxt):
            self.pending_val[res] = f"({value})"
            if raw is not None:
                self.pending_raw[res] = raw
            return
        frag.append(f"r{res} = {value}")
        self._post_compute(frag, instr)

    def _gen_load(self, frag: list[str], instr, nxt) -> None:
        res = instr.result.index
        mem = instr.mem
        if type(mem) is GlobalRef and not self.m.is_array_global(mem.name):
            src = self._hoisted(mem.name) or f"cells[{mem.name!r}]"
            # A scalar-cell read cannot raise and nothing runs between
            # adjacent instructions, so it may quicken like a pure op.
            if self._can_pend(instr, nxt):
                self.pending_val[res] = src
                return
            frag.append(f"r{res} = {src}")
            self._post_compute(frag, instr)
            return
        span = self.m._name(instr.span, "sp")
        index = self._operand(instr.index)
        if type(mem) is GlobalRef:
            data = self.m.global_data(mem.name)
            size = self.m.global_size(mem.name)
            self._load_lines(frag, res, data, str(size), size, index, span)
        else:
            rendered = self._operand(mem)
            info = self._arr_info(mem, rendered)
            if info is not None:
                data, size_expr, _ = info
                static = int(size_expr) if size_expr.isdigit() else None
                self._load_lines(
                    frag, res, data, size_expr, static, index, span
                )
            else:
                frag.append(f"d = {rendered}.data")
                self._load_lines(frag, res, "d", "len(d)", None, index, span)
        self._post_compute(frag, instr)

    def _load_lines(
        self, frag, res, data, size_expr, static_size, index, span
    ) -> None:
        if (
            index.isdigit()
            and static_size is not None
            and int(index) < static_size
        ):
            # In-bounds constant index: the check is decided at codegen.
            frag.append(f"r{res} = {data}[{index}]")
            return
        if _SIMPLE_INDEX_RE.fullmatch(index):
            i = index
        else:
            frag.append(f"i = {index}")
            i = "i"
        frag += [
            f"if type({i}) is int and 0 <= {i} < {size_expr}:",
            f"    r{res} = {data}[{i}]",
            "else:",
            f"    r{res} = {data}[_slow_index({i}, {size_expr}, {span})]",
        ]

    def _gen_store(self, frag: list[str], instr) -> None:
        mem = instr.mem
        value = self._operand(instr.value)
        if type(mem) is GlobalRef and not self.m.is_array_global(mem.name):
            conv = self.m.scalar_conv(mem.name)
            frag.append(f"cells[{mem.name!r}] = {conv}({value})")
            self._post_compute(frag, instr)
            return
        span = self.m._name(instr.span, "sp")
        index = self._operand(instr.index)
        if type(mem) is GlobalRef:
            data = self.m.global_data(mem.name)
            size = self.m.global_size(mem.name)
            conv = "int" if self.m.global_elem_is_int(mem.name) else "float"
            self._store_lines(
                frag, data, str(size), size, index, conv, value, span
            )
        else:
            rendered = self._operand(mem)
            info = self._arr_info(mem, rendered)
            if info is not None:
                data, size_expr, is_int = info
                static = int(size_expr) if size_expr.isdigit() else None
                conv = "int" if is_int else "float"
                self._store_lines(
                    frag, data, size_expr, static, index, conv, value, span
                )
            else:
                frag += [
                    f"st = {rendered}",
                    "d = st.data",
                    f"i = {index}",
                    "if not (type(i) is int and 0 <= i < len(d)):",
                    f"    i = _slow_index(i, len(d), {span})",
                    f"v = {value}",
                    "d[i] = int(v) if st.element_is_int else float(v)",
                ]
        self._post_compute(frag, instr)

    def _store_lines(
        self, frag, data, size_expr, static_size, index, conv, value, span
    ) -> None:
        if (
            index.isdigit()
            and static_size is not None
            and int(index) < static_size
        ):
            frag.append(f"{data}[{index}] = {conv}({value})")
            return
        if _SIMPLE_INDEX_RE.fullmatch(index):
            # The slow arm binds the checked index first so a bad index
            # still raises before the value conversion, like the tree
            # engine.
            frag += [
                f"if type({index}) is int and 0 <= {index} < {size_expr}:",
                f"    {data}[{index}] = {conv}({value})",
                "else:",
                f"    i = _slow_index({index}, {size_expr}, {span})",
                f"    {data}[i] = {conv}({value})",
            ]
            return
        frag += [
            f"i = {index}",
            f"if not (type(i) is int and 0 <= i < {size_expr}):",
            f"    i = _slow_index(i, {size_expr}, {span})",
            f"{data}[i] = {conv}({value})",
        ]

    def _gen_builtin(self, frag: list[str], instr) -> None:
        spec = BUILTINS[instr.callee]
        impl = self.m.builtin_name(instr.callee)
        args = "".join(f", {self._operand(arg)}" for arg in instr.args)
        call = f"{impl}(interp{args})"
        if instr.result is None:
            frag.append(call)
        else:
            if spec.returns == "int":
                call = f"int({call})"
            elif spec.returns == "float":
                call = f"float({call})"
            frag.append(f"r{instr.result.index} = {call}")
        self._post_compute(frag, instr)

    def _gen_user_call(self, frag: list[str], instr) -> None:
        args = "".join(
            f"{self._operand(arg)}, " for arg in instr.args
        )
        call = f"_mc_{instr.callee}({args}_d + 1)"
        if instr.result is not None:
            frag.append(f"r{instr.result.index} = {call}")
        else:
            frag.append(call)


class _SymSource:
    """One resolved shadow input of the current segment.

    ``entry`` sources (operand, memory-cell and control-top entries) hold
    a resolved ``(times, valid)`` pair in numbered locals behind an
    ``is not None`` guard; ``list`` is a fully materialized timestamp
    vector (no guard, full depth)."""

    __slots__ = ("kind", "tm", "vl", "guard", "origin")

    def __init__(
        self,
        kind: str,
        tm: str,
        vl: str | None,
        guard: str | None,
        origin: "_SymTS | None" = None,
    ):
        self.kind = kind
        self.tm = tm
        self.vl = vl
        self.guard = guard
        self.origin = origin


class _SymTS:
    """A deferred timestamp vector: elementwise max over ``parts`` (source
    -> added offset) floored at ``const``. Materializes lazily; most event
    results are consumed symbolically and never allocate a list.

    ``cover`` maps every source this value provably dominates to the
    largest offset ``o`` with ``self >= source + o`` (pointwise, over the
    source's covered positions) — used to prune redundant fold loops."""

    __slots__ = ("parts", "const", "conc", "cover", "_as_source")

    def __init__(self, parts: dict, const: int, cover: dict):
        self.parts = parts
        self.const = const
        self.cover = cover
        self.conc: str | None = None
        self._as_source: _SymSource | None = None

    def as_source(self) -> _SymSource:
        source = self._as_source
        if source is None:
            source = _SymSource("list", self.conc, None, None, self)
            self._as_source = source
        return source


def _live_out_sets(function) -> dict[int, frozenset]:
    """Backward liveness of value-register indices at each block's exit.

    Shadow reads only occur where the value register is read (shadow_ops,
    call args, branch conditions, return values are all operand
    positions), so this over-approximates shadow liveness."""
    use: dict[int, set] = {}
    defs: dict[int, set] = {}
    succ: dict[int, list] = {}
    for block in function.blocks:
        u: set = set()
        d: set = set()
        for instr in block.instructions:
            for op in getattr(instr, "operands", ()):
                if type(op) is Register and op.index not in d:
                    u.add(op.index)
            result = getattr(instr, "result", None)
            if result is not None and type(result) is Register:
                d.add(result.index)
        term = block.terminator
        for op in getattr(term, "operands", ()):
            if type(op) is Register and op.index not in d:
                u.add(op.index)
        use[id(block)] = u
        defs[id(block)] = d
        succ[id(block)] = list(term.successors)
    live_in: dict[int, frozenset] = {
        id(block): frozenset() for block in function.blocks
    }
    live_out: dict[int, frozenset] = dict(live_in)
    changed = True
    while changed:
        changed = False
        for block in reversed(function.blocks):
            key = id(block)
            out: set = set()
            for target in succ[key]:
                out |= live_in[id(target)]
            fs_out = frozenset(out)
            if fs_out != live_out[key]:
                live_out[key] = fs_out
            fs_in = frozenset(use[key] | (out - defs[key]))
            if fs_in != live_in[key]:
                live_in[key] = fs_in
                changed = True
    return live_out


class _FusedFunctionEmitter(_FunctionEmitter):
    """Compiles one function with KremlinProfiler semantics baked in.

    Shadow registers are locals (``s{i}``). Segments reset at every block
    boundary and flush at every terminator, call, and region marker —
    exactly the points where the tree profiler's incremental totals become
    observable — which keeps the fold order, and therefore the serialized
    profile, bit-identical to the tree engine's.

    With metrics on, each flush also adds the segment's operand counts to
    ``fastpath.known_hits``/``fastpath.entry_resolutions`` and its fully
    stale resolutions to ``shadow.stale_evictions``. Those amounts are
    fixed at codegen time, so they cost one increment line each and leave
    every other generated statement unchanged.
    """

    fused = True

    def __init__(self, m: "_FusedModuleEmitter", function):
        super().__init__(m, function)
        self.s_used: set[int] = set()
        self._sym = 0  # numbers timestamp and resolution temporaries
        self._metrics_on = m.metrics_on
        self._max_depth = m.max_depth
        self.info = m.instrumentation.get(function.name)
        self.live_out = _live_out_sets(function)
        self._seg_reset()

    def _sreg(self, index: int) -> str:
        self.s_used.add(index)
        return f"s{index}"

    def _ts_name(self) -> str:
        self._sym += 1
        return f"_s{self._sym}"

    def _reset_state(self) -> None:
        super()._reset_state()
        self._seg_reset()

    # -- symbolic segment engine ------------------------------------------

    def _seg_reset(self) -> None:
        self._seg_known: dict[int, _SymTS] = {}
        self._seg_cost = 0
        self._seg_loaded = False
        self._src_reg: dict[int, _SymSource] = {}
        self._ctrl_source: _SymSource | None = None
        self._pending_sreg: dict[int, _SymTS] = {}
        self._seg_events: list[_SymTS] = []
        self._seg_consumed: set[int] = set()
        # Metrics: operands served by segment dataflow, and per source the
        # number of operand reads the tree profiler resolves against it.
        self._seg_hits = 0
        self._seg_uses: dict[_SymSource, int] = {}

    def _seg_load(self, lines) -> None:
        if not self._seg_loaded:
            lines.append("_cu = prof.tags")
            lines.append("_dp = prof.tracked_depth")
            self._seg_loaded = True

    def _resolved(self, src: _SymSource) -> None:
        """Count one operand read resolved against ``src`` (metrics)."""
        self._seg_uses[src] = self._seg_uses.get(src, 0) + 1

    def _sym_event(
        self,
        lines,
        cost,
        reg_indices,
        cell_expr=None,
        result_index=None,
        fresh_control=False,
    ) -> _SymTS:
        """One profiling event: merge the operands' timestamps (symbolic)
        and record the result for the segment's batched accounting."""
        self._seg_load(lines)
        raw: dict[_SymSource, int] = {}
        const = 0
        conc_covers: list[dict] = []
        all_covers: list[dict] = []
        for index in reg_indices:
            known = self._seg_known.get(index)
            if known is not None:
                self._seg_hits += 1
                self._seg_consumed.add(id(known))
                all_covers.append(known.cover)
                if known.conc is not None:
                    src = known.as_source()
                    if raw.get(src, -1) < 0:
                        raw[src] = 0
                    # A materialized vector bakes its inputs in, so its
                    # cover can prune them without circularity.
                    conc_covers.append(known.cover)
                else:
                    for src, off in known.parts.items():
                        if off > raw.get(src, -1):
                            raw[src] = off
                if known.const > const:
                    const = known.const
            else:
                src = self._reg_source(lines, index)
                self._resolved(src)
                if raw.get(src, -1) < 0:
                    raw[src] = 0
        if cell_expr is not None:
            src = self._entry_source(lines, cell_expr)
            self._resolved(src)
            raw[src] = 0
        if fresh_control:
            # The branch terminator reads the control top after its own
            # truncation, so the segment cache cannot be used.
            src = self._entry_source(
                lines, "control[-1][2] if control else None"
            )
            self._resolved(src)
            raw[src] = 0
        else:
            src = self._ctrl_src(lines)
            if raw.get(src, -1) < 0:
                raw[src] = 0
        parts: dict[_SymSource, int] = {}
        for src, off in raw.items():
            for cov in conc_covers:
                if cov.get(src, -1) >= off:
                    break  # a newer materialized input dominates this one
            else:
                parts[src] = off + cost
        cover: dict[_SymSource, int] = {}
        for cov in all_covers:
            for src, off in cov.items():
                if off + cost > cover.get(src, -1):
                    cover[src] = off + cost
        for src, off in parts.items():
            if off > cover.get(src, -1):
                cover[src] = off
        ts = _SymTS(parts, const + cost, cover)
        self._seg_cost += cost
        self._seg_events.append(ts)
        if result_index is not None:
            self._seg_known[result_index] = ts
            self._pending_sreg[result_index] = ts
        return ts

    def _event_value(
        self, lines, cost, reg_indices, cell_expr=None, fresh_control=False
    ) -> str:
        """Like :meth:`_sym_event` but always yields a materialized
        timestamp name (the entry escapes the segment)."""
        ts = self._sym_event(
            lines, cost, reg_indices, cell_expr, None, fresh_control
        )
        return self._materialize(lines, ts)

    def _reg_source(self, lines, index: int) -> _SymSource:
        src = self._src_reg.get(index)
        if src is None:
            src = self._entry_source(lines, self._sreg(index))
            self._src_reg[index] = src
        return src

    def _entry_source(self, lines, expr: str) -> _SymSource:
        """Resolve entry ``expr`` once into numbered locals: statement-level
        :func:`~repro.kremlib.shadow.resolve_entry` against the current
        tags, memoized in ``prefix_memo`` (see _gen_region_exit for the
        high-water upkeep)."""
        self._sym += 1
        n = self._sym
        e, tm, vl = f"_e{n}", f"_tm{n}", f"_vl{n}"
        lines += [
            f"{e} = {expr}",
            f"if {e} is not None:",
            f"    {tm}, _tg = {e}",
            "    if _tg is _cu:",
            f"        {vl} = len({tm})",
            f"        if {vl} > _dp:",
            f"            {vl} = _dp",
            "    else:",
            f"        {vl} = prefix_memo.get(_tg, -1)",
            f"        if {vl} < 0:",
            f"            {vl} = len(_tg)",
            f"            if len(_cu) < {vl}:",
            f"                {vl} = len(_cu)",
            "            _k = 0",
            f"            while _k < {vl} and _tg[_k] == _cu[_k]:",
            "                _k += 1",
            f"            {vl} = _k",
            f"            prefix_memo[_tg] = {vl}",
            f"            if {vl} > memo_high[0]:",
            f"                memo_high[0] = {vl}",
            f"        if len({tm}) < {vl}:",
            f"            {vl} = len({tm})",
            f"        if {vl} > _dp:",
            f"            {vl} = _dp",
        ]
        return _SymSource("entry", tm, vl, f"{e} is not None")

    def _ctrl_src(self, lines) -> _SymSource:
        """The control-top entry, resolved once per segment."""
        if self._ctrl_source is None:
            self._ctrl_source = self._entry_source(
                lines, "control[-1][2] if control else None"
            )
        return self._ctrl_source

    # Region bodies (the profiler's on_region_enter/on_region_exit). The
    # resolution memo maps a tags tuple to its common-prefix length with
    # the current tags. A region ENTER preserves every cached length
    # exactly — the appended instance id is freshly allocated, so no
    # cached tag can match it — and an EXIT only invalidates entries whose
    # cached prefix overshoots the popped tag path. memo_high[0] tracks
    # the memo's prefix high-water mark, so loop-level exits (the hot
    # case: every cached prefix stops at or above the loop tag) skip the
    # clear.
    def _gen_region_enter(self, lines, static_id) -> None:
        maxd = self._max_depth
        lines += [
            f"_tk = len(stack) < {maxd}",
            f"_rg = _ActiveRegion({static_id}, prof._next_instance, _tk)",
            "prof._next_instance += 1",
            "stack.append(_rg)",
            "prof.tags += (_rg.instance,)",
            "_td = len(stack)",
            f"if _td > {maxd}:",
            f"    _td = {maxd}",
            "prof.tracked_depth = _td",
            "if _tk:",
            "    cps.append(0)",
        ]

    def _gen_region_exit(self, lines, static_id) -> None:
        maxd = self._max_depth
        lines += [
            "if not stack:",
            "    raise ProfilerError(",
            f"        'region_exit #{static_id} with empty region stack')",
            "_rg = stack.pop()",
            f"if _rg.static_id != {static_id}:",
            "    raise ProfilerError(",
            f"        'unbalanced regions: exiting #{static_id} but '",
            "        '#%d is on top' % _rg.static_id)",
            "_tg = prof.tags[:-1]",
            "prof.tags = _tg",
            "_td = len(stack)",
            f"if _td > {maxd}:",
            f"    _td = {maxd}",
            "prof.tracked_depth = _td",
            "_cp = cps.pop() if _rg.tracked else _rg.work",
            "if _cp > _rg.work:",
            "    _cp = _rg.work",
            "_c = prof.dictionary.intern(_rg.static_id, _rg.work, _cp,",
            "                            tuple(sorted(_rg.children.items())))",
            "if stack:",
            "    _pr = stack[-1]",
            "    _pr.work += _rg.work",
            "    _pr.children[_c] = _pr.children.get(_c, 0) + 1",
            "else:",
            "    prof.root_char = _c",
            "if memo_high[0] > len(_tg):",
            "    prefix_memo.clear()",
            "    memo_high[0] = 0",
        ]

    def _materialize(self, lines, ts: _SymTS) -> str:
        if ts.conc is not None:
            return ts.conc
        tv = self._ts_name()
        parts = ts.parts
        # Prefer seeding from a full-depth list source whose own floor
        # already covers the const pad: a listcomp (or an alias) beats
        # the [const]*depth seed plus an elementwise fold loop.
        base = None
        base_floor = -1
        for src, off in parts.items():
            if src.kind == "list" and src.origin is not None:
                floor = src.origin.const + off
                if floor > base_floor:
                    base, base_floor = src, floor
        if base is not None and base_floor >= ts.const:
            off = parts[base]
            rest = [(s, o) for s, o in parts.items() if s is not base]
            if off:
                lines.append(f"{tv} = [_t + {off} for _t in {base.tm}]")
            elif rest:
                lines.append(f"{tv} = {base.tm}[:]")
            else:
                # Alias: timestamp vectors are never mutated once built.
                lines.append(f"{tv} = {base.tm}")
        else:
            # A guarded source whose offset reaches the const floor can
            # still seed its valid prefix at C speed (timestamps are
            # non-negative, so _t + off >= off >= const there) with the
            # const pad covering the tail.
            gbase = None
            for src, off in parts.items():
                if src.kind != "list" and off >= ts.const:
                    gbase = src
                    break
            if gbase is not None:
                off = parts[gbase]
                term = f"_t + {off}" if off else "_t"
                rest = [(s, o) for s, o in parts.items() if s is not gbase]
                lines += [
                    f"if {gbase.guard}:",
                    f"    {tv} = [{term} for _t in {gbase.tm}[:{gbase.vl}]]"
                    f" + [{ts.const}] * (_dp - {gbase.vl})",
                    "else:",
                    f"    {tv} = [{ts.const}] * _dp",
                ]
            else:
                lines.append(f"{tv} = [{ts.const}] * _dp")
                rest = list(parts.items())
        for src, off in rest:
            self._fold_source(lines, src, off, tv, "")
        ts.conc = tv
        return tv

    def _fold_source(self, lines, src, off, target, pad) -> None:
        term = f"_t + {off}" if off else "_t"
        if src.kind == "list":
            lines.append(
                pad + f"{target}[:] = [_c if _c > {term} else {term} "
                f"for _c, _t in zip({target}, {src.tm})]"
            )
            return
        stmt = (
            f"{target}[:{src.vl}] = [_c if _c > {term} else {term} "
            f"for _c, _t in zip({target}, {src.tm}[:{src.vl}])]"
        )
        if src.guard is not None:
            lines.append(pad + f"if {src.guard}:")
            lines.append(pad + _PAD + stmt)
        else:
            lines.append(pad + stmt)

    def _count_segment(self, lines) -> None:
        """Metrics: the segment's operand counters, as the tree profiler's
        per-event hooks would count them. A source shared by several
        events counts once per event that reads it."""
        uses = self._seg_uses
        if self._seg_hits:
            lines.append(f"_mfp[0] += {self._seg_hits}")
        if uses:
            lines.append(f"_mres[0] += {sum(uses.values())}")
        for src, weight in uses.items():
            lines.append(
                f"if {src.guard} and {src.vl} == 0: _mev[0] += {weight}"
            )

    def _seg_flush(self, lines, keep) -> None:
        """Store the segment's live pending shadows (registers in ``keep``)
        and fold its work and cp maxima into the region stack."""
        if self._metrics_on:
            self._count_segment(lines)
        for index, ts in self._pending_sreg.items():
            if index not in keep:
                continue  # shadow provably dead past this block
            tv = self._materialize(lines, ts)
            lines.append(f"{self._sreg(index)} = ({tv}, _cu)")
        # The region fold is the pointwise max over all event vectors;
        # events consumed by a later event are dominated by it, so only
        # maximal events need folding.
        maximal = [
            ts
            for ts in self._seg_events
            if id(ts) not in self._seg_consumed
        ]
        if self._seg_cost or maximal:
            lines.append("if stack:")
            if self._seg_cost:
                lines.append(f"    stack[-1].work += {self._seg_cost}")
            conc_cover: dict[_SymSource, int] = {}
            conc_const = 0
            folded = set()
            for ts in maximal:
                if ts.conc is None:
                    continue
                if ts.conc in folded:
                    continue
                folded.add(ts.conc)
                self._fold_source(lines, ts.as_source(), 0, "cps", _PAD)
                for src, off in ts.cover.items():
                    if off > conc_cover.get(src, -1):
                        conc_cover[src] = off
                if ts.const > conc_const:
                    conc_const = ts.const
            fold_parts: dict[_SymSource, int] = {}
            fold_const = 0
            for ts in maximal:
                if ts.conc is not None:
                    continue
                for src, off in ts.parts.items():
                    if off > fold_parts.get(src, -1):
                        fold_parts[src] = off
                if ts.const > fold_const:
                    fold_const = ts.const
            for src, off in fold_parts.items():
                if conc_cover.get(src, -1) >= off:
                    continue  # already folded through a materialized event
                self._fold_source(lines, src, off, "cps", _PAD)
            if fold_const > conc_const:
                lines.append(
                    f"    cps[:_dp] = [_c if _c > {fold_const} "
                    f"else {fold_const} for _c in cps[:_dp]]"
                )
        self._seg_reset()

    def _skip_instr(self, instr) -> bool:
        return False  # region markers are events here

    def _gen_head(self, frag: list[str], block) -> None:
        super()._gen_head(frag, block)
        if self.info is not None and block in self.info.pops_at:
            # Control-dependence join: entering ends the influence of
            # every branch whose join this block is (on_block_enter).
            join_key = id(block)
            frag += [
                "_j = 0",
                "for _en in control:",
                f"    if _en[1] == {join_key}:",
                "        del control[_j:]",
                "        break",
                "    _j += 1",
            ]

    def _gen_instructions(self, frag: list[str], block) -> None:
        self._seg_reset()
        # Per-instruction keep sets for mid-block flushes (region ops and
        # user calls): a pending shadow store may be elided there unless
        # its register is read later in this block (including by the
        # flushing instruction itself — calls resolve their argument sregs
        # after the flush) or is live out of it.
        keep = set(self.live_out[id(block)])
        for op in getattr(block.terminator, "operands", ()):
            if type(op) is Register:
                keep.add(op.index)
        mid: dict[int, frozenset] = {}
        for instr in reversed(block.instructions):
            for op in getattr(instr, "operands", ()):
                if type(op) is Register:
                    keep.add(op.index)
            mid[id(instr)] = frozenset(keep)
        self._mid_keep = mid
        super()._gen_instructions(frag, block)

    def _mid_flush(self, frag: list[str], instr) -> None:
        self._seg_flush(frag, self._mid_keep[id(instr)])

    def _gen_instr(self, frag: list[str], instr, nxt) -> None:
        cls = type(instr)
        if cls is RegionEnter:
            self._mid_flush(frag, instr)
            self._gen_region_enter(frag, instr.region_id)
            return
        if cls is RegionExit:
            self._mid_flush(frag, instr)
            self._gen_region_exit(frag, instr.region_id)
            return
        if cls is Call and not instr.is_builtin:
            self._gen_user_call_fused(frag, instr)
            return
        super()._gen_instr(frag, instr, nxt)

    def _post_compute(self, frag: list[str], instr) -> None:
        # on_compute / on_builtin, fused.
        self._sym_event(
            frag,
            instr.cost,
            instr.shadow_ops,
            result_index=instr.result_index,
        )

    def _gen_load(self, frag: list[str], instr, nxt) -> None:
        res = instr.result.index
        mem = instr.mem
        if type(mem) is GlobalRef and not self.m.is_array_global(mem.name):
            frag.append(f"r{res} = cells[{mem.name!r}]")
            key = _global_key(mem)
            frag.append("_cm = mem_shadow.get(0)")
            cell = f"None if _cm is None else _cm.get({key})"
        elif type(mem) is GlobalRef:
            data = self.m.global_data(mem.name)
            size = self.m.global_size(mem.name)
            span = self.m._name(instr.span, "sp")
            index = self._operand(instr.index)
            frag += [
                f"i = {index}",
                f"if type(i) is int and 0 <= i < {size}:",
                f"    r{res} = {data}[i]",
                "else:",
                f"    r{res} = {data}[_slow_index(i, {size}, {span})]",
            ]
            frag.append(
                f"_cm = mem_shadow.get({self.m.global_sid(mem.name)})"
            )
            cell = "None if _cm is None else _cm[i]"
        else:
            span = self.m._name(instr.span, "sp")
            index = self._operand(instr.index)
            frag += [
                f"st = {self._operand(mem)}",
                "d = st.data",
                f"i = {index}",
                "if type(i) is int and 0 <= i < len(d):",
                f"    r{res} = d[i]",
                "else:",
                f"    r{res} = d[_slow_index(i, len(d), {span})]",
            ]
            frag.append("_cm = mem_shadow.get(id(st))")
            cell = "None if _cm is None else _cm[i]"
        self._sym_event(
            frag,
            instr.cost,
            instr.shadow_ops,
            cell_expr=cell,
            result_index=instr.result_index,
        )

    def _gen_store(self, frag: list[str], instr) -> None:
        mem = instr.mem
        value = self._operand(instr.value)
        if type(mem) is GlobalRef and not self.m.is_array_global(mem.name):
            conv = self.m.scalar_conv(mem.name)
            frag.append(f"cells[{mem.name!r}] = {conv}({value})")
            sid, cell_index, alloc = "0", str(_global_key(mem)), "{}"
        elif type(mem) is GlobalRef:
            data = self.m.global_data(mem.name)
            size = self.m.global_size(mem.name)
            conv = "int" if self.m.global_elem_is_int(mem.name) else "float"
            span = self.m._name(instr.span, "sp")
            index = self._operand(instr.index)
            frag += [
                f"i = {index}",
                f"if not (type(i) is int and 0 <= i < {size}):",
                f"    i = _slow_index(i, {size}, {span})",
                f"{data}[i] = {conv}({value})",
            ]
            sid, cell_index, alloc = (
                self.m.global_sid(mem.name),
                "i",
                f"[None] * {size}",
            )
        else:
            span = self.m._name(instr.span, "sp")
            index = self._operand(instr.index)
            frag += [
                f"st = {self._operand(mem)}",
                "d = st.data",
                f"i = {index}",
                "if not (type(i) is int and 0 <= i < len(d)):",
                f"    i = _slow_index(i, len(d), {span})",
                f"v = {value}",
                "d[i] = int(v) if st.element_is_int else float(v)",
            ]
            sid, cell_index, alloc = "id(st)", "i", "[None] * len(d)"
        tv = self._event_value(frag, instr.cost, instr.shadow_ops)
        frag += [
            f"_cm = mem_shadow.get({sid})",
            "if _cm is None:",
            f"    _cm = {alloc}",
            f"    mem_shadow[{sid}] = _cm",
            f"_cm[{cell_index}] = ({tv}, _cu)",
        ]
        if self._metrics_on:
            frag.append("_mcell[0] += 1")

    # -- terminators -------------------------------------------------------

    def _preterm(self, frag: list[str], block, term) -> None:
        keep = self.live_out[id(block)]
        if type(term) is Jump:
            # No event fires for unconditional jumps.
            self._seg_flush(frag, keep)
            return
        # Branch: re-executing (back edge) ends every control region opened
        # after its previous execution — truncate to its old position FIRST
        # (and do not chain the new entry off the old one; see on_branch).
        info = self.m.instrumentation[self.function.name]
        block_key = id(block)
        if block in info.loop_branch_blocks:
            # Loop-continuation tests never push their own control entry,
            # so the back-edge truncation scan can never match and the
            # control top is unchanged since the segment started: skip the
            # scan, reuse the cached resolution, stay symbolic. The tree
            # profiler resolves that same control top afresh here, so it
            # counts as one more read of the cached source.
            reg_indices = (
                (term.cond.index,) if type(term.cond) is Register else ()
            )
            self._sym_event(frag, term.cost, reg_indices)
            self._resolved(self._ctrl_src(frag))
            self._seg_flush(frag, keep)
            return
        frag += [
            "_k = len(control) - 1",
            "while _k >= 0:",
            f"    if control[_k][0] == {block_key}:",
            "        del control[_k:]",
            "        break",
            "    _k -= 1",
        ]
        reg_indices = (
            (term.cond.index,) if type(term.cond) is Register else ()
        )
        tv = self._event_value(
            frag, term.cost, reg_indices, fresh_control=True
        )
        if block not in info.loop_branch_blocks:
            join = info.control.branch_join.get(block)
            join_key = id(join) if join is not None else None
            frag.append(
                f"control.append(({block_key}, {join_key}, ({tv}, _cu)))"
            )
        # else: loop-continuation tests do not enter the control stack
        self._seg_flush(frag, keep)

    def _ret_block_lines(self, term, retired, cost) -> list[str]:
        frag: list[str] = []
        frag.append(f"counts[0] += {retired}")
        frag.append(f"counts[1] += {cost}")
        if self.budget is not None:
            frag.append(f"if counts[0] > {self.budget}:")
            frag.append(
                "    raise InterpreterError('instruction budget exceeded')"
            )
        if term.value is not None:
            frag.append(f"v = {self._operand(term.value)}")
            frag += self._ret_conversion_lines()
        # on_return: the value's availability feeds the caller via
        # prof._pending_return (picked up at the call site).
        reg_indices = (
            (term.value.index,)
            if term.value is not None and type(term.value) is Register
            else ()
        )
        tv = self._event_value(frag, term.cost, reg_indices)
        frag.append(f"prof._pending_return = {tv}")
        # Returning: every pending shadow store is dead past this point.
        self._seg_flush(frag, frozenset())
        frag.append("return v" if term.value is not None else "return None")
        return frag

    # -- user calls --------------------------------------------------------

    def _gen_user_call_fused(self, frag: list[str], instr) -> None:
        self._mid_flush(frag, instr)
        callee = self.m.module.function(instr.callee)
        cost = instr.cost
        args = [self._operand(arg) for arg in instr.args]
        # on_call: seed the callee's parameter shadows and charge the call
        # overhead itself — same statement order as the tree profiler.
        frag.append("_cur = prof.tags")
        frag.append("_tdp = prof.tracked_depth")
        frag.append(
            "_ctr = _resolve(control[-1][2], _cur) if control else None"
        )
        if self._metrics_on:
            frag.append("_mfr[0] += 1")
        frag.append("_ai = [] if _ctr is None else [_ctr]")
        ps_names: list[str] = []
        for k, arg in enumerate(instr.args[: len(callee.params)]):
            ps = f"_ps{k}"
            ps_names.append(ps)
            if type(arg) is Register:
                frag += [
                    "_pi = [] if _ctr is None else [_ctr]",
                    f"_rs = _resolve({self._sreg(arg.index)}, _cur)",
                    "if _rs is not None:",
                    "    _pi.append(_rs)",
                    "    _ai.append(_rs)",
                    f"{ps} = (_cts(_pi, {cost}, _tdp), _cur)",
                ]
            else:
                frag.append(
                    f"{ps} = (_cts([] if _ctr is None else [_ctr], "
                    f"{cost}, _tdp), _cur)"
                )
        frag.append(f"_ts = _cts(_ai, {cost}, _tdp)")
        frag += [
            "if stack:",
            f"    stack[-1].work += {cost}",
            "    _k = 0",
            "    for _t in _ts:",
            "        if _t > cps[_k]:",
            "            cps[_k] = _t",
            "        _k += 1",
        ]
        value_args = "".join(f"{a}, " for a in args)
        shadow_args = "".join(f"{p}, " for p in ps_names)
        call = f"_mc_{instr.callee}({value_args}{shadow_args}_d + 1)"
        if instr.result is not None:
            frag.append(f"r{instr.result.index} = {call}")
        else:
            frag.append(call)
        # on_call_return: the callee's Ret left its availability here.
        frag.append("_pn = prof._pending_return")
        frag.append("prof._pending_return = None")
        if instr.result is not None:
            frag.append("if _pn is not None:")
            frag.append(
                f"    {self._sreg(instr.result.index)} = (_pn, prof.tags)"
            )


class _ModuleEmitter:
    """Emits the whole module's generated source (plain flavor)."""

    flavor = "plain"

    def __init__(self, program, budget, force_fallback: bool = False):
        self.program = program
        self.module = program.module
        self.budget = budget
        self.force_fallback = force_fallback
        self.env: dict[str, object] = {}
        self.array_globals: set[str] = set()
        self.fallback_functions: list[str] = []
        self._sym = 0
        self._const_names: dict = {}
        self._builtin_names: dict[str, str] = {}

    # -- environment naming ------------------------------------------------

    def _name(self, value, prefix: str = "k") -> str:
        self._sym += 1
        name = f"_{prefix}{self._sym}"
        self.env[name] = value
        return name

    def const_name(self, value) -> str:
        key = (type(value).__name__, value)
        try:
            name = self._const_names.get(key)
        except TypeError:  # unhashable constant (shouldn't happen)
            return self._name(value, "c")
        if name is None:
            name = self._name(value, "c")
            self._const_names[key] = name
        return name

    def builtin_name(self, callee: str) -> str:
        name = self._builtin_names.get(callee)
        if name is None:
            name = self._name(BUILTINS[callee].impl, "fn")
            self._builtin_names[callee] = name
        return name

    # -- globals -----------------------------------------------------------

    def is_array_global(self, name: str) -> bool:
        return isinstance(self.module.globals[name].type, ArrayType)

    def global_size(self, name: str) -> int:
        return self.module.globals[name].type.element_count

    def global_elem_is_int(self, name: str) -> bool:
        return self.module.globals[name].type.element == INT

    def scalar_conv(self, name: str) -> str:
        return "int" if self.module.globals[name].type == INT else "float"

    def global_obj(self, name: str) -> str:
        self.array_globals.add(name)
        return f"_go_{name}"

    def global_data(self, name: str) -> str:
        self.array_globals.add(name)
        return f"_ga_{name}"

    def global_sid(self, name: str) -> str:
        self.array_globals.add(name)
        return f"_gid_{name}"

    # -- module ------------------------------------------------------------

    def _new_function_emitter(self, function):
        return _FunctionEmitter(self, function)

    def emit_source(self) -> str:
        parts = []
        for name, function in self.module.functions.items():
            emitter = self._new_function_emitter(function)
            parts.append("\n".join(emitter.emit()))
            if emitter.fallback:
                self.fallback_functions.append(name)
        return "\n\n".join(parts) + "\n"


class _FusedModuleEmitter(_ModuleEmitter):
    """Emits the module with fused KremlinProfiler instrumentation."""

    flavor = "fused"

    def __init__(
        self,
        program,
        budget,
        max_depth: int,
        metrics_on: bool,
        force_fallback: bool = False,
    ):
        super().__init__(program, budget, force_fallback)
        self.instrumentation = program.instrumentation.functions
        self.max_depth = max_depth
        self.metrics_on = metrics_on

    def _new_function_emitter(self, function):
        return _FusedFunctionEmitter(self, function)


class CodegenUnit:
    """One compiled module: source, code object, and binding metadata.

    ``program_env`` holds program-scoped objects the source references by
    generated name (spans, out-of-line constants, builtin impls).
    Instance-scoped names (``cells``, ``interp``, ``counts``,
    ``_go_*``/``_ga_*``/``_gid_*``, profiler state) are bound by
    :class:`repro.interp.runtime.CompiledEngine` before ``exec``.
    """

    __slots__ = (
        "flavor",
        "source",
        "code",
        "program_env",
        "array_globals",
        "fallback_functions",
        "budget",
        "build_seconds",
    )

    def __init__(
        self,
        flavor,
        source,
        code,
        program_env,
        array_globals,
        fallback_functions,
        budget,
        build_seconds,
    ):
        self.flavor = flavor
        self.source = source
        self.code = code
        self.program_env = program_env
        self.array_globals = array_globals
        self.fallback_functions = fallback_functions
        self.budget = budget
        self.build_seconds = build_seconds


def build_unit(
    program,
    flavor: str,
    budget=None,
    max_depth: int | None = None,
    metrics_on: bool = False,
) -> CodegenUnit:
    """Compile ``program`` to a :class:`CodegenUnit` (no caching)."""
    start = time.perf_counter()
    last_error: Exception | None = None
    for force in (False, True):
        if flavor == "fused":
            emitter = _FusedModuleEmitter(
                program,
                budget,
                max_depth,
                metrics_on,
                force_fallback=force,
            )
        elif flavor == "plain":
            emitter = _ModuleEmitter(program, budget, force_fallback=force)
        else:
            raise InterpreterError(f"unknown codegen flavor {flavor!r}")
        source = emitter.emit_source()
        try:
            code = compile(source, f"<kremlin-codegen {flavor}>", "exec")
        except (SyntaxError, RecursionError, MemoryError) as error:
            # Structured output too deep for CPython's compiler: retry the
            # whole module with the dispatch-loop fallback.
            last_error = error
            continue
        return CodegenUnit(
            flavor=flavor,
            source=source,
            code=code,
            program_env=dict(emitter.env),
            array_globals=sorted(emitter.array_globals),
            fallback_functions=list(emitter.fallback_functions),
            budget=budget,
            build_seconds=time.perf_counter() - start,
        )
    raise InterpreterError(f"codegen failed to compile: {last_error}")


def codegen_unit(
    program,
    flavor: str,
    budget=None,
    max_depth: int | None = None,
    metrics_on: bool = False,
) -> CodegenUnit:
    """Cached :func:`build_unit`, keyed on the program object.

    The in-process cache lives on ``program.__dict__``, so a fresh
    ``kremlin_cc`` naturally gets fresh code; callers that mutate a
    program's IR in place after a run must recompile from a new program
    object. In-process misses consult the persistent disk cache
    (:mod:`repro.interp.diskcache`) before building, so warm restarts —
    the service workload — perform zero codegen; freshly built units are
    written back best-effort.
    """
    from repro.interp import diskcache
    from repro.obs.metrics import get_metrics, metrics_enabled

    key = (flavor, budget, max_depth, metrics_on)
    cache = program.__dict__.setdefault("_codegen_units", {})
    unit = cache.get(key)
    if unit is not None:
        if metrics_enabled():
            get_metrics().counter("codegen.unit_cache_hits").cell[0] += 1
        return unit
    unit = diskcache.load_unit(program, flavor, budget, max_depth, metrics_on)
    if unit is None:
        unit = build_unit(program, flavor, budget, max_depth, metrics_on)
        diskcache.store_unit(
            program, flavor, budget, max_depth, metrics_on, unit
        )
    cache[key] = unit
    if metrics_enabled():
        get_metrics().counter("codegen.unit_cache_misses").cell[0] += 1
    return unit
