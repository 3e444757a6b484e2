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

The code is written for the interpreter's hot loop: attribute lookups are
hoisted, entries are plain tuples, and the common "written in the current
region phase" case resolves by tuple identity.
"""

from __future__ import annotations

from repro.hcpa.summaries import CompressionDictionary, ParallelismProfile
from repro.instrument.compile import CompiledProgram
from repro.interp.interpreter import ExecutionObserver, Interpreter, RunResult
from repro.ir.instructions import BinOp
from repro.ir.values import Register
from repro.kremlib.shadow import ShadowFrame, make_cell_table, resolve_entry
from repro.obs.metrics import get_metrics, metrics_enabled
from repro.obs.trace import get_tracer

_UNLIMITED_DEPTH = 1 << 30


class _ActiveRegion:
    __slots__ = ("static_id", "instance", "work", "cp", "children", "tracked")

    def __init__(self, static_id: int, instance: int, tracked: bool):
        self.static_id = static_id
        self.instance = instance
        self.work = 0
        self.cp = 0
        self.children: dict[int, int] = {}
        self.tracked = tracked


class ProfilerError(Exception):
    """Raised when region nesting discipline is violated at run time."""


class KremlinProfiler(ExecutionObserver):
    """HCPA observer; attach to an :class:`Interpreter` and run."""

    # The compiled engine bakes this observer's hook bodies into its
    # generated code (repro.interp.codegen, fused flavor) instead of firing
    # per-event callbacks; generic observers fall back to the tree engine.
    fused_codegen = True

    def __init__(self, program: CompiledProgram, max_depth: int | None = None):
        self.program = program
        self.max_depth = max_depth if max_depth is not None else _UNLIMITED_DEPTH
        self.dictionary = CompressionDictionary()
        self.root_char: int | None = None

        # Region stack state.
        self.stack: list[_ActiveRegion] = []
        self.tags: tuple[int, ...] = ()
        self.tracked_depth = 0
        self._next_instance = 1

        # Two-level shadow memory: storage id -> second-level cell table.
        # Array storages get array-backed tables (one slot per element,
        # see shadow.make_cell_table); scalar globals share the dict under
        # storage id 0, keyed by interned global name.
        self.mem_shadow: dict[int, list | dict] = {}

        self._pending_return: list | None = None
        self._finished_profile: ParallelismProfile | None = None

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

    def _resolve(self, entry):
        """Resolve an entry to (times, valid_depth); None if all stale.

        Thin wrapper over the shared prefix-resolution routine
        (:func:`~repro.kremlib.shadow.resolve_entry`) binding the current
        region tags; kept as a method so hook bodies read naturally.
        """
        return resolve_entry(entry, self.tags)

    def _compute_ts(self, inputs, cost: int) -> list:
        """ts[d] = max over inputs of times[d] (0 beyond validity) + cost."""
        depth = self.tracked_depth
        ts = [cost] * depth
        for times, valid in inputs:
            if valid > depth:
                valid = depth
            for d in range(valid):
                t = times[d] + cost
                if t > ts[d]:
                    ts[d] = t
        return ts

    def _account(self, ts: list, cost: int) -> None:
        """Charge work to the innermost region; raise cps along the stack."""
        stack = self.stack
        if not stack:
            return
        stack[-1].work += cost
        for d in range(len(ts)):
            region = stack[d]
            if ts[d] > region.cp:
                region.cp = ts[d]

    def _control_top(self, shadow: ShadowFrame):
        control = shadow.control
        if not control:
            return None
        return self._resolve(control[-1][2])

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

        cp = region.cp
        if not region.tracked or cp > region.work:
            # Depth-limited regions fall back to the serial assumption;
            # cp can also never exceed work (defensive clamp).
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
        """Hot path: inlined resolve + timestamp + accounting.

        Functionally identical to resolving each operand with
        :func:`~repro.kremlib.shadow.resolve_entry`, computing
        ``ts[d] = max(inputs[d]) + cost``, charging work/cp, and storing the
        result entry — written out longhand because this runs once per
        retired instruction. ``instr.shadow_ops`` (precomputed by the
        instrumentation pass) already honours the dependence-breaking rule.
        """
        shadow = frame.shadow
        if shadow is None:
            shadow = self._shadow(frame)
        registers = shadow.registers
        cost = instr.cost
        depth = self.tracked_depth
        current = self.tags
        ts = [cost] * depth

        for index in instr.shadow_ops:
            entry = registers[index]
            if entry is None:
                continue
            times, tags = entry
            if tags is current:
                valid = len(times)
            else:
                valid = len(tags)
                if len(current) < valid:
                    valid = len(current)
                if len(times) < valid:
                    valid = len(times)
                k = 0
                while k < valid and tags[k] == current[k]:
                    k += 1
                valid = k
            if valid > depth:
                valid = depth
            for d in range(valid):
                t = times[d] + cost
                if t > ts[d]:
                    ts[d] = t

        control = shadow.control
        if control:
            resolved = self._resolve(control[-1][2])
            if resolved is not None:
                times, valid = resolved
                if valid > depth:
                    valid = depth
                for d in range(valid):
                    t = times[d] + cost
                    if t > ts[d]:
                        ts[d] = t

        stack = self.stack
        if stack:
            stack[-1].work += cost
            for d in range(depth):
                region = stack[d]
                if ts[d] > region.cp:
                    region.cp = ts[d]

        result_index = instr.result_index
        if result_index is not None:
            registers[result_index] = (ts, current)

    def on_load(self, instr, frame, storage, index: int) -> None:
        shadow = frame.shadow
        if shadow is None:
            shadow = self._shadow(frame)
        registers = shadow.registers

        inputs = []
        for operand_index in instr.shadow_ops:
            resolved = self._resolve(registers[operand_index])
            if resolved is not None:
                inputs.append(resolved)
        if type(storage) is int:
            # Scalar global: shared dict table keyed by interned name.
            cell_map = self.mem_shadow.get(storage)
            entry = None if cell_map is None else cell_map.get(index)
        else:
            cell_map = self.mem_shadow.get(id(storage))
            entry = None if cell_map is None else cell_map[index]
        if entry is not None:
            resolved = self._resolve(entry)
            if resolved is not None:
                inputs.append(resolved)
        control = self._control_top(shadow)
        if control is not None:
            inputs.append(control)

        ts = self._compute_ts(inputs, instr.cost)
        self._account(ts, instr.cost)
        registers[instr.result_index] = (ts, self.tags)

    def on_store(self, instr, frame, storage, index: int) -> None:
        shadow = frame.shadow
        if shadow is None:
            shadow = self._shadow(frame)
        registers = shadow.registers

        inputs = []
        for operand_index in instr.shadow_ops:
            resolved = self._resolve(registers[operand_index])
            if resolved is not None:
                inputs.append(resolved)
        control = self._control_top(shadow)
        if control is not None:
            inputs.append(control)

        ts = self._compute_ts(inputs, instr.cost)
        self._account(ts, instr.cost)
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

    def on_builtin(self, instr, frame) -> None:
        shadow = frame.shadow
        if shadow is None:
            shadow = self._shadow(frame)
        registers = shadow.registers
        inputs = []
        for operand_index in instr.shadow_ops:
            resolved = self._resolve(registers[operand_index])
            if resolved is not None:
                inputs.append(resolved)
        control = self._control_top(shadow)
        if control is not None:
            inputs.append(control)
        ts = self._compute_ts(inputs, instr.cost)
        self._account(ts, instr.cost)
        if instr.result_index is not None:
            registers[instr.result_index] = (ts, self.tags)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def on_call(self, instr, caller_frame, callee_frame) -> None:
        caller_shadow = caller_frame.shadow
        if caller_shadow is None:
            caller_shadow = self._shadow(caller_frame)
        registers = caller_shadow.registers
        control = self._control_top(caller_shadow)
        cost = instr.cost

        callee_shadow = ShadowFrame(callee_frame.function.num_registers)
        callee_frame.shadow = callee_shadow
        callee_registers = callee_shadow.registers

        all_inputs = [] if control is None else [control]
        for param, arg in zip(callee_frame.function.params, instr.args):
            arg_inputs = [] if control is None else [control]
            if type(arg) is Register:
                resolved = self._resolve(registers[arg.index])
                if resolved is not None:
                    arg_inputs.append(resolved)
                    all_inputs.append(resolved)
            param_ts = self._compute_ts(arg_inputs, cost)
            callee_registers[param.index] = (param_ts, self.tags)

        # Charge the call overhead itself.
        ts = self._compute_ts(all_inputs, cost)
        self._account(ts, cost)

    def on_return(self, ret, frame) -> None:
        shadow = frame.shadow
        if shadow is None:
            shadow = self._shadow(frame)
        inputs = []
        value = ret.value
        if value is not None and type(value) is Register:
            resolved = self._resolve(shadow.registers[value.index])
            if resolved is not None:
                inputs.append(resolved)
        control = self._control_top(shadow)
        if control is not None:
            inputs.append(control)
        ts = self._compute_ts(inputs, ret.cost)
        self._account(ts, ret.cost)
        self._pending_return = ts

    def on_call_return(self, call_instr, caller_frame) -> None:
        pending = self._pending_return
        self._pending_return = None
        if call_instr.result is None or pending is None:
            return
        shadow = caller_frame.shadow
        if shadow is None:
            shadow = self._shadow(caller_frame)
        shadow.registers[call_instr.result.index] = (pending, self.tags)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def on_branch(self, branch, frame, block) -> None:
        shadow = frame.shadow
        if shadow is None:
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

        inputs = []
        cond = branch.cond
        if type(cond) is Register:
            resolved = self._resolve(shadow.registers[cond.index])
            if resolved is not None:
                inputs.append(resolved)
        if control_stack:
            resolved = self._resolve(control_stack[-1][2])
            if resolved is not None:
                inputs.append(resolved)
        ts = self._compute_ts(inputs, branch.cost)
        self._account(ts, branch.cost)
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
        self.stack.clear()
        self.tags = ()
        self.tracked_depth = 0
        self.mem_shadow.clear()
        self._pending_return = None
        self._finished_profile = None

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
                instructions_retired=interpreter.instructions_retired,
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
