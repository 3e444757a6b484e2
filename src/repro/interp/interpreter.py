"""The IR interpreter.

Executes an instrumented module deterministically, firing observer hooks
with every retired instruction so the KremLib runtime (or any other dynamic
analysis) can ride along. Running with ``observer=None`` is the
"uninstrumented binary" — same semantics, no profiling overhead.

Memory model:

* scalars live in virtual registers (per activation frame);
* arrays are flat Python lists wrapped in :class:`ArrayStorage`, passed by
  reference; shadow analyses key memory state by ``(storage id, index)``;
* global scalars live in a module-level cell table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.interp.builtins import BUILTINS, _LcgState
from repro.interp.errors import InterpreterError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
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
from repro.ir.values import Constant, GlobalRef, Register, StringConst, Value

if TYPE_CHECKING:
    from repro.instrument.compile import CompiledProgram


class ExecutionObserver:
    """Hook interface for dynamic analyses. All methods are no-ops here.

    The interpreter invokes these *after* an instruction's semantic effect,
    except ``on_call`` (after argument binding, before the callee body) and
    ``on_block_enter`` (before the block's first instruction).
    """

    def on_run_start(self, interpreter: "Interpreter") -> None: ...

    def on_run_end(self, interpreter: "Interpreter") -> None: ...

    def on_compute(self, instr, frame) -> None: ...

    # ``storage`` is the ArrayStorage object for array accesses (its id
    # keys the shadow table and its length sizes array-backed tables) or
    # the int 0 for scalar globals, with ``index`` the interned name key.
    def on_load(self, instr, frame, storage, index: int) -> None: ...

    def on_store(self, instr, frame, storage, index: int) -> None: ...

    def on_builtin(self, instr, frame) -> None: ...

    def on_call(self, instr, caller_frame, callee_frame) -> None: ...

    def on_return(self, ret, frame) -> None: ...

    def on_call_return(self, call_instr, caller_frame) -> None: ...

    def on_branch(self, branch, frame, block: BasicBlock) -> None: ...

    def on_block_enter(self, block: BasicBlock, frame) -> None: ...

    def on_region_enter(self, instr, frame) -> None: ...

    def on_region_exit(self, instr, frame) -> None: ...


class ArrayStorage:
    """Flat array storage; identity is its id for shadow keying."""

    __slots__ = ("data", "element_is_int")

    def __init__(self, count: int, element_is_int: bool):
        self.data = [0] * count if element_is_int else [0.0] * count
        self.element_is_int = element_is_int

    def __len__(self) -> int:
        return len(self.data)


class Frame:
    """One activation: register file plus an analysis-attachable slot."""

    __slots__ = ("function", "registers", "frame_id", "shadow")

    def __init__(self, function: Function, frame_id: int):
        self.function = function
        self.registers: list = [None] * function.num_registers
        self.frame_id = frame_id
        self.shadow = None  # owned by the observer


@dataclass
class RunResult:
    """Outcome of one program execution."""

    value: int | float | None
    output: list[str] = field(default_factory=list)
    instructions_retired: int = 0
    total_cost: int = 0


# Each MiniC call adds a few Python frames; stay well inside Python's own
# recursion limit so the guard fires first with a clear message.
_MAX_CALL_DEPTH = 400


class Interpreter:
    """Executes a :class:`CompiledProgram`.

    Two execution engines share this class:

    * ``engine="compiled"`` (the default) — the AOT engine from
      :mod:`repro.interp.codegen` / :mod:`repro.interp.runtime`: each
      function compiles to one generated Python function. Supports
      ``observer=None`` (plain flavor) and
      :class:`~repro.kremlib.profiler.KremlinProfiler` (fused flavor, the
      profiler's hook bodies baked in). Any other observer silently falls
      back to the tree engine, which fires the full generic hook protocol.
    * ``engine="tree"`` — the tree-walking reference implementation
      below, kept for differential testing.
    """

    def __init__(
        self,
        program: "CompiledProgram",
        observer: ExecutionObserver | None = None,
        max_instructions: int | None = None,
        engine: str = "compiled",
    ):
        self.program = program
        self.module = program.module
        self.observer = observer
        self.max_instructions = max_instructions

        if engine not in ("tree", "compiled"):
            raise InterpreterError(
                f"unknown engine {engine!r} (expected 'tree' or 'compiled')"
            )
        if (
            engine == "compiled"
            and observer is not None
            and not getattr(observer, "fused_codegen", False)
        ):
            # Generic observers need the per-instruction hook protocol only
            # the tree engine fires.
            engine = "tree"
        self.engine = engine
        self._compiled = None

        self.globals_scalar: dict[str, int | float] = {}
        self.globals_array: dict[str, ArrayStorage] = {}
        self.output: list[str] = []
        self.rng = _LcgState()
        self.instructions_retired = 0
        self.total_cost = 0
        self._next_frame_id = 0

        self._init_globals()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _init_globals(self) -> None:
        for var in self.module.globals.values():
            if isinstance(var.type, ArrayType):
                count = var.type.element_count
                assert count is not None
                self.globals_array[var.name] = ArrayStorage(
                    count, var.type.element == INT
                )
            else:
                default: int | float = 0 if var.type == INT else 0.0
                if var.init is not None:
                    default = var.init
                self.globals_scalar[var.name] = default

    def _new_frame(self, function: Function) -> Frame:
        frame = Frame(function, self._next_frame_id)
        self._next_frame_id += 1
        return frame

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------

    def _value(self, operand: Value, frame: Frame):
        if type(operand) is Register:
            return frame.registers[operand.index]
        if type(operand) is Constant:
            return operand.value
        if type(operand) is GlobalRef:
            # Array globals are passed by reference.
            storage = self.globals_array.get(operand.name)
            if storage is not None:
                return storage
            return self.globals_scalar[operand.name]
        if type(operand) is StringConst:
            return operand.value
        raise InterpreterError(f"cannot evaluate operand {operand!r}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _compiled_engine(self):
        if self._compiled is None:
            from repro.interp.runtime import CompiledEngine

            self._compiled = CompiledEngine(self)
        return self._compiled

    def prepare(self) -> None:
        """Eagerly compile the selected engine's code.

        Normally codegen is lazy (first ``run()``); sessions that want
        codegen cost up front — e.g. to cache compiled units before timing
        runs — call this explicitly. No-op for the tree engine.
        """
        if self.engine == "compiled":
            self._compiled_engine().prepare()

    def run(self, entry: str = "main", args: tuple = ()) -> RunResult:
        if self.engine == "compiled":
            return self._compiled_engine().run(entry, args)
        observer = self.observer
        if observer is not None:
            observer.on_run_start(self)
        function = self.module.function(entry)
        frame = self._new_frame(function)
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{entry}() expects {len(function.params)} arguments, got {len(args)}"
            )
        for param, arg in zip(function.params, args):
            frame.registers[param.index] = arg
        value = self._run_function(frame, depth=0)
        if observer is not None:
            observer.on_run_end(self)
        return RunResult(
            value=value,
            output=list(self.output),
            instructions_retired=self.instructions_retired,
            total_cost=self.total_cost,
        )

    def _run_function(self, frame: Frame, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise InterpreterError("call stack exhausted (runaway recursion?)")
        observer = self.observer
        block = frame.function.entry
        registers = frame.registers
        retired = 0
        cost_total = 0

        while True:
            if observer is not None:
                observer.on_block_enter(block, frame)
            for instr in block.instructions:
                retired += 1
                cost_total += instr.cost
                cls = type(instr)
                if cls is BinOp:
                    lhs = instr.lhs
                    rhs = instr.rhs
                    a = (
                        registers[lhs.index]
                        if type(lhs) is Register
                        else self._value(lhs, frame)
                    )
                    b = (
                        registers[rhs.index]
                        if type(rhs) is Register
                        else self._value(rhs, frame)
                    )
                    registers[instr.result.index] = _apply_binop(
                        instr.op, a, b, instr.span
                    )
                    if observer is not None:
                        observer.on_compute(instr, frame)
                elif cls is Load:
                    mem = self._value(instr.mem, frame)
                    if type(mem) is ArrayStorage:
                        index = self._value(instr.index, frame)
                        try:
                            registers[instr.result.index] = mem.data[_check_index(index, len(mem.data), instr)]
                        except IndexError:
                            raise InterpreterError(
                                f"array index {index} out of bounds "
                                f"(size {len(mem.data)})",
                                instr.span,
                            ) from None
                        if observer is not None:
                            observer.on_load(instr, frame, mem, index)
                    else:
                        registers[instr.result.index] = mem  # global scalar
                        if observer is not None:
                            observer.on_load(instr, frame, 0, _global_key(instr.mem))
                elif cls is Store:
                    mem = self._value(instr.mem, frame)
                    value = self._value(instr.value, frame)
                    if type(mem) is ArrayStorage:
                        index = self._value(instr.index, frame)
                        data = mem.data
                        checked = _check_index(index, len(data), instr)
                        if mem.element_is_int:
                            data[checked] = int(value)
                        else:
                            data[checked] = float(value)
                        if observer is not None:
                            observer.on_store(instr, frame, mem, index)
                    else:
                        name = instr.mem.name  # type: ignore[union-attr]
                        var = self.module.globals[name]
                        self.globals_scalar[name] = (
                            int(value) if var.type == INT else float(value)
                        )
                        if observer is not None:
                            observer.on_store(instr, frame, 0, _global_key(instr.mem))
                elif cls is Copy:
                    registers[instr.result.index] = self._value(instr.operand, frame)
                    if observer is not None:
                        observer.on_compute(instr, frame)
                elif cls is Cast:
                    value = self._value(instr.operand, frame)
                    registers[instr.result.index] = (
                        int(value) if instr.target == INT else float(value)
                    )
                    if observer is not None:
                        observer.on_compute(instr, frame)
                elif cls is UnOp:
                    value = self._value(instr.operand, frame)
                    if instr.op == "-":
                        registers[instr.result.index] = -value
                    else:  # '!'
                        registers[instr.result.index] = 0 if value else 1
                    if observer is not None:
                        observer.on_compute(instr, frame)
                elif cls is Call:
                    if instr.is_builtin:
                        self._exec_builtin(instr, frame)
                        if observer is not None:
                            observer.on_builtin(instr, frame)
                    else:
                        callee = self.module.function(instr.callee)
                        callee_frame = self._new_frame(callee)
                        callee_registers = callee_frame.registers
                        for param, arg in zip(callee.params, instr.args):
                            callee_registers[param.index] = self._value(arg, frame)
                        if observer is not None:
                            observer.on_call(instr, frame, callee_frame)
                        result = self._run_function(callee_frame, depth + 1)
                        if instr.result is not None:
                            registers[instr.result.index] = result
                        if observer is not None:
                            observer.on_call_return(instr, frame)
                elif cls is RegionEnter:
                    if observer is not None:
                        observer.on_region_enter(instr, frame)
                elif cls is RegionExit:
                    if observer is not None:
                        observer.on_region_exit(instr, frame)
                elif cls is Alloca:
                    count = instr.array_type.element_count
                    assert count is not None
                    registers[instr.result.index] = ArrayStorage(
                        count, instr.array_type.element == INT
                    )
                    if observer is not None:
                        observer.on_compute(instr, frame)
                else:
                    raise InterpreterError(
                        f"unknown instruction {type(instr).__name__}", instr.span
                    )

            terminator = block.terminator
            retired += 1
            cost_total += terminator.cost
            cls = type(terminator)
            if cls is Jump:
                block = terminator.target
            elif cls is Branch:
                cond = self._value(terminator.cond, frame)
                if self.observer is not None:
                    self.observer.on_branch(terminator, frame, block)
                block = terminator.then_block if cond != 0 else terminator.else_block
            elif cls is Ret:
                self.instructions_retired += retired
                self.total_cost += cost_total
                if self.max_instructions is not None and (
                    self.instructions_retired > self.max_instructions
                ):
                    raise InterpreterError("instruction budget exceeded")
                value = (
                    self._value(terminator.value, frame)
                    if terminator.value is not None
                    else None
                )
                if value is not None:
                    return_type = frame.function.return_type
                    value = int(value) if return_type == INT else (
                        float(value) if return_type == FLOAT else value
                    )
                if observer is not None:
                    observer.on_return(terminator, frame)
                return value
            else:
                raise InterpreterError(
                    f"unknown terminator {type(terminator).__name__}",
                    terminator.span,
                )

            if self.max_instructions is not None:
                # Only check at block boundaries: cheap and sufficient.
                if self.instructions_retired + retired > self.max_instructions:
                    raise InterpreterError("instruction budget exceeded")

    def _exec_builtin(self, instr: Call, frame: Frame) -> None:
        spec = BUILTINS[instr.callee]
        values = [self._value(arg, frame) for arg in instr.args]
        result = spec.impl(self, *values)
        if instr.result is not None:
            if spec.returns == "int":
                result = int(result)
            elif spec.returns == "float":
                result = float(result)
            frame.registers[instr.result.index] = result


def _check_index(index, size: int, instr) -> int:
    if not isinstance(index, int):
        raise InterpreterError(f"non-integer array index {index!r}", instr.span)
    if index < 0 or index >= size:
        raise InterpreterError(
            f"array index {index} out of bounds (size {size})", instr.span
        )
    return index


_GLOBAL_KEYS: dict[str, int] = {}


def _global_key(ref) -> int:
    """Stable small-int key for a global scalar cell (shadow addressing)."""
    key = _GLOBAL_KEYS.get(ref.name)
    if key is None:
        key = len(_GLOBAL_KEYS)
        _GLOBAL_KEYS[ref.name] = key
    return key


def _apply_binop(op: str, a, b, span):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise InterpreterError("division by zero", span)
        if isinstance(a, int) and isinstance(b, int):
            # C semantics: truncate toward zero.
            q = abs(a) // abs(b)
            return -q if (a < 0) != (b < 0) else q
        return a / b
    if op == "%":
        if b == 0:
            raise InterpreterError("modulo by zero", span)
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return a - q * b
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return a << b
    if op == ">>":
        return a >> b
    if op == "&&":
        return 1 if (a != 0 and b != 0) else 0
    if op == "||":
        return 1 if (a != 0 or b != 0) else 0
    raise InterpreterError(f"unknown binary operator {op!r}", span)
