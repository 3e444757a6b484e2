"""The KremLib profiler: hierarchical critical path analysis at run time.

One :class:`KremlinProfiler` rides along one interpreter run. For every
retired instruction it

1. gathers the availability times of the instruction's operands (registers
   via the frame's shadow register table, memory via the two-level shadow
   memory, the controlling branch via the control-dependence stack),
   skipping the old-value operand of induction/reduction updates;
2. computes the result's availability ``ts[d] = max(inputs[d]) + cost`` for
   every active region depth ``d``;
3. bumps the innermost region's work by ``cost`` (outer regions inherit it
   when children exit) and raises each active region's critical-path length
   to ``ts[d]``;
4. stores ``ts`` into the destination's shadow entry, tagged with the
   current region-instance stack.

Region enter/exit markers maintain the region stack; every exit interns a
``(static region, work, cp, children)`` summary into the compression
dictionary (§4.4) and credits the summary character to the parent.

Entries are plain tuples; :func:`~repro.kremlib.shadow.resolve_entry`
resolves the common "written in the current region phase" case by tuple
identity.
"""

from __future__ import annotations

from repro.hcpa.summaries import CompressionDictionary, ParallelismProfile
from repro.instrument.compile import CompiledProgram
from repro.interp.interpreter import ExecutionObserver, Interpreter, RunResult
from repro.ir.values import Register
from repro.kremlib.shadow import (
    ShadowFrame,
    _compute_ts,
    make_cell_table,
    resolve_entry,
)
from repro.obs.metrics import get_metrics, metrics_enabled
from repro.obs.trace import get_tracer

_UNLIMITED_DEPTH = 1 << 30


class _ActiveRegion:
    __slots__ = ("static_id", "instance", "work", "children", "tracked")

    def __init__(self, static_id: int, instance: int, tracked: bool):
        self.static_id = static_id
        self.instance = instance
        self.work = 0
        self.children: dict[int, int] = {}
        self.tracked = tracked


class ProfilerError(Exception):
    """Raised when region nesting discipline is violated at run time."""


class KremlinProfiler(ExecutionObserver):
    """HCPA observer; attach to an :class:`Interpreter` and run.

    The profiler owns all per-run HCPA state, and both engines work on it
    directly: the tree engine through the hooks below, the compiled
    engine's fused code through the same objects bound into its module
    environment. The mutable containers are therefore reset in place
    (:meth:`on_run_start`), never rebound.
    """

    # The compiled engine bakes this observer's hook bodies into its
    # generated code (repro.interp.codegen, fused flavor) instead of firing
    # per-event callbacks; generic observers fall back to the tree engine.
    fused_codegen = True

    def __init__(self, program: CompiledProgram, max_depth: int | None = None):
        self.program = program
        self.max_depth = max_depth if max_depth is not None else _UNLIMITED_DEPTH
        self.dictionary = CompressionDictionary()
        self.root_char: int | None = None

        # Region stack state: the active regions, their instance-id path,
        # the depth of the tracked (depth-window) prefix, and that
        # prefix's per-depth critical-path maxima.
        self.stack: list[_ActiveRegion] = []
        self.tags: tuple[int, ...] = ()
        self.tracked_depth = 0
        self.cps: list[int] = []
        self._next_instance = 1
        # The fused code's resolution memo: tags tuple -> common-prefix
        # length with the current tags. memo_high[0] is the longest cached
        # prefix; a region exit clears the memo only when the popped tag
        # path is shorter than it.
        self.prefix_memo: dict[tuple, int] = {}
        self.memo_high: list[int] = [0]

        # Two-level shadow memory: storage id -> second-level cell table.
        # Array storages get array-backed tables (one slot per element,
        # see shadow.make_cell_table); scalar globals share the dict under
        # storage id 0, keyed by interned global name.
        self.mem_shadow: dict[int, list | dict] = {}

        self._pending_return: list | None = None
        self._finished_profile: ParallelismProfile | None = None
        # The interpreter's retired count is cumulative across runs.
        self._retired_at_start = 0

        # Observability: the enabled flag is snapshotted at construction
        # (same gating contract as the compiled engine's codegen), and the
        # counter cells are bound once so the guarded hot-path increments
        # are a single list-subscript bump.
        self._metrics_on = metrics_enabled()
        if self._metrics_on:
            registry = get_metrics()
            self._m_frames = registry.counter("shadow.frames").cell
            self._m_cells = registry.counter("shadow.cell_writes").cell

        # Control-dependence schedule from the instrumentation pass.
        self._branch_join: dict[int, int | None] = {}
        self._is_join: set[int] = set()
        self._loop_branches: set[int] = set()
        for name, info in program.instrumentation.functions.items():
            for branch_block, join in info.control.branch_join.items():
                self._branch_join[id(branch_block)] = (
                    id(join) if join is not None else None
                )
            for join_block in info.pops_at:
                self._is_join.add(id(join_block))
            for loop_block in info.loop_branch_blocks:
                self._loop_branches.add(id(loop_block))

    # ------------------------------------------------------------------
    # Shadow helpers
    # ------------------------------------------------------------------

    def _shadow(self, frame) -> ShadowFrame:
        shadow = frame.shadow
        if shadow is None:
            shadow = ShadowFrame(frame.function.num_registers)
            frame.shadow = shadow
            if self._metrics_on:
                self._m_frames[0] += 1
        return shadow

    def _event(self, shadow: ShadowFrame, operands, cost: int, entry=None):
        """One non-call event; returns its result timestamp vector.

        Resolves the operand registers, the optional memory-cell ``entry``
        and the control top against the current tags, merges them into
        ``ts[d] = max(inputs[d]) + cost``, charges ``cost`` to the
        innermost region and raises the tracked prefix's cp maxima.
        """
        # Plain loops, not comprehensions: this runs once per retired
        # instruction on the tree engine.
        tags = self.tags
        registers = shadow.registers
        entries = [entry]
        for index in operands:
            entries.append(registers[index])
        control = shadow.control
        if control:
            entries.append(control[-1][2])
        inputs = []
        for e in entries:
            if e is not None:
                resolved = resolve_entry(e, tags)
                if resolved is not None:
                    inputs.append(resolved)
        ts = _compute_ts(inputs, cost, self.tracked_depth)
        if self.stack:
            self.stack[-1].work += cost
            cps = self.cps
            d = 0
            for t in ts:
                if t > cps[d]:
                    cps[d] = t
                d += 1
        return ts

    # ------------------------------------------------------------------
    # Region events
    # ------------------------------------------------------------------

    def on_region_enter(self, instr, frame) -> None:
        tracked = len(self.stack) < self.max_depth
        region = _ActiveRegion(instr.region_id, self._next_instance, tracked)
        self._next_instance += 1
        self.stack.append(region)
        self.tags = self.tags + (region.instance,)
        self.tracked_depth = min(len(self.stack), self.max_depth)
        if tracked:
            self.cps.append(0)

    def on_region_exit(self, instr, frame) -> None:
        if not self.stack:
            raise ProfilerError(
                f"region_exit #{instr.region_id} with empty region stack"
            )
        region = self.stack.pop()
        if region.static_id != instr.region_id:
            raise ProfilerError(
                f"unbalanced regions: exiting #{instr.region_id} but "
                f"#{region.static_id} is on top"
            )
        self.tags = self.tags[:-1]
        self.tracked_depth = min(len(self.stack), self.max_depth)

        # Depth-limited regions fall back to the serial assumption; cp can
        # also never exceed work (defensive clamp).
        cp = self.cps.pop() if region.tracked else region.work
        if cp > region.work:
            cp = region.work
        children = tuple(sorted(region.children.items()))
        char = self.dictionary.intern(region.static_id, region.work, cp, children)
        if self.stack:
            parent = self.stack[-1]
            parent.work += region.work
            parent.children[char] = parent.children.get(char, 0) + 1
        else:
            self.root_char = char

    # ------------------------------------------------------------------
    # Instruction events
    # ------------------------------------------------------------------

    def on_compute(self, instr, frame) -> None:
        """``instr.shadow_ops`` (precomputed by the instrumentation pass)
        already honours the dependence-breaking rule."""
        shadow = self._shadow(frame)
        ts = self._event(shadow, instr.shadow_ops, instr.cost)
        if instr.result_index is not None:
            shadow.registers[instr.result_index] = (ts, self.tags)

    on_builtin = on_compute

    def on_load(self, instr, frame, storage, index: int) -> None:
        shadow = self._shadow(frame)
        if type(storage) is int:
            # Scalar global: shared dict table keyed by interned name.
            cell_map = self.mem_shadow.get(storage)
            entry = None if cell_map is None else cell_map.get(index)
        else:
            cell_map = self.mem_shadow.get(id(storage))
            entry = None if cell_map is None else cell_map[index]
        ts = self._event(shadow, instr.shadow_ops, instr.cost, entry)
        shadow.registers[instr.result_index] = (ts, self.tags)

    def on_store(self, instr, frame, storage, index: int) -> None:
        ts = self._event(self._shadow(frame), instr.shadow_ops, instr.cost)
        if type(storage) is int:
            cell_map = self.mem_shadow.get(storage)
            if cell_map is None:
                cell_map = {}
                self.mem_shadow[storage] = cell_map
        else:
            sid = id(storage)
            cell_map = self.mem_shadow.get(sid)
            if cell_map is None:
                cell_map = make_cell_table(len(storage.data))
                self.mem_shadow[sid] = cell_map
        cell_map[index] = (ts, self.tags)
        if self._metrics_on:
            self._m_cells[0] += 1

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def on_call(self, instr, caller_frame, callee_frame) -> None:
        caller_shadow = self._shadow(caller_frame)
        registers = caller_shadow.registers
        tags = self.tags
        depth = self.tracked_depth
        cost = instr.cost
        control = caller_shadow.control
        resolved = resolve_entry(control[-1][2], tags) if control else None
        base = [] if resolved is None else [resolved]

        callee_shadow = ShadowFrame(callee_frame.function.num_registers)
        callee_frame.shadow = callee_shadow
        callee_registers = callee_shadow.registers

        operands = []
        for param, arg in zip(callee_frame.function.params, instr.args):
            arg_inputs = list(base)
            if type(arg) is Register:
                operands.append(arg.index)
                resolved = resolve_entry(registers[arg.index], tags)
                if resolved is not None:
                    arg_inputs.append(resolved)
            param_ts = _compute_ts(arg_inputs, cost, depth)
            callee_registers[param.index] = (param_ts, tags)

        # Charge the call overhead itself.
        self._event(caller_shadow, operands, cost)

    def on_return(self, ret, frame) -> None:
        value = ret.value
        operands = (value.index,) if type(value) is Register else ()
        self._pending_return = self._event(
            self._shadow(frame), operands, ret.cost
        )

    def on_call_return(self, call_instr, caller_frame) -> None:
        pending = self._pending_return
        self._pending_return = None
        if call_instr.result is None or pending is None:
            return
        shadow = self._shadow(caller_frame)
        shadow.registers[call_instr.result.index] = (pending, self.tags)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def on_branch(self, branch, frame, block) -> None:
        shadow = self._shadow(frame)
        control_stack = shadow.control
        block_key = id(block)
        # Re-executing a branch (back edge) ends every control region opened
        # after its previous execution: truncate to its old position FIRST.
        # Crucially, the new entry must not chain off the old one — the
        # iteration-to-iteration control dependence of a counted loop's exit
        # test is exactly the chain induction-variable breaking dissolves;
        # keeping it would serialize every DOALL loop at the loop level.
        for i in range(len(control_stack) - 1, -1, -1):
            if control_stack[i][0] == block_key:
                del control_stack[i:]
                break

        cond = branch.cond
        operands = (cond.index,) if type(cond) is Register else ()
        ts = self._event(shadow, operands, branch.cost)
        if block_key in self._loop_branches:
            return  # loop-continuation tests do not enter the control stack
        join = self._branch_join.get(block_key)
        control_stack.append((block_key, join, (ts, self.tags)))

    def on_block_enter(self, block, frame) -> None:
        if id(block) not in self._is_join:
            return
        shadow = frame.shadow
        if shadow is None:
            return
        control_stack = shadow.control
        block_key = id(block)
        for i, entry in enumerate(control_stack):
            if entry[1] == block_key:
                del control_stack[i:]
                return

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------

    def on_run_start(self, interpreter) -> None:
        # A fresh dictionary per run: a profile already returned keeps its
        # own, so reusing the profiler never changes it.
        self.dictionary = CompressionDictionary()
        self.root_char = None
        self.stack.clear()
        self.tags = ()
        self.tracked_depth = 0
        self.cps.clear()
        self.prefix_memo.clear()
        self.memo_high[0] = 0
        self.mem_shadow.clear()
        self._pending_return = None
        self._finished_profile = None
        self._retired_at_start = interpreter.instructions_retired

    def on_run_end(self, interpreter) -> None:
        if self.stack:
            raise ProfilerError(
                f"{len(self.stack)} regions still active at program end"
            )
        if self.root_char is None:
            raise ProfilerError("no root region was recorded")
        with get_tracer().span("hcpa-update") as span:
            root = self.dictionary.entry(self.root_char)
            self._finished_profile = ParallelismProfile(
                dictionary=self.dictionary,
                root_char=self.root_char,
                regions=self.program.regions,
                instructions_retired=(
                    interpreter.instructions_retired - self._retired_at_start
                ),
                total_work=root.work,
                program_name=self.program.filename,
                max_depth=(
                    None
                    if self.max_depth == _UNLIMITED_DEPTH
                    else self.max_depth
                ),
            )
            span.args["dictionary_entries"] = len(self.dictionary.entries)
            span.args["raw_records"] = self.dictionary.raw_records
        if self._metrics_on:
            from repro.hcpa.compression import record_compression_metrics

            record_compression_metrics(self._finished_profile)

    @property
    def profile(self) -> ParallelismProfile:
        if self._finished_profile is None:
            raise ProfilerError("run has not completed")
        return self._finished_profile


def profile_program(
    program: CompiledProgram,
    entry: str = "main",
    args: tuple = (),
    max_depth: int | None = None,
    max_instructions: int | None = None,
    engine: str = "compiled",
) -> tuple[ParallelismProfile, RunResult]:
    """Run a compiled program under the KremLib profiler.

    Returns the parallelism profile and the ordinary run result (so callers
    can check the program's own outputs/return value). ``engine`` selects
    the execution engine (``"compiled"`` AOT codegen or the ``"tree"``
    reference).
    """
    profiler = KremlinProfiler(program, max_depth=max_depth)
    interpreter = Interpreter(
        program,
        observer=profiler,
        max_instructions=max_instructions,
        engine=engine,
    )
    tracer = get_tracer()
    with tracer.span(
        "execute", engine=interpreter.engine, entry=entry
    ) as span:
        result = interpreter.run(entry=entry, args=args)
        span.args["instructions"] = result.instructions_retired
    return profiler.profile, result
