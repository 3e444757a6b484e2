"""The instrumentation pass: attach runtime metadata to a lowered module.

Mirrors the paper's two LLVM instrumentation steps (§3):

* **critical-path instrumentation** — assign every instruction its latency
  from the cost model, and record, per conditional branch, the join block at
  which its control influence ends (drives the runtime control-dependence
  stack);
* **region instrumentation** — lowering already inserted
  ``region_enter``/``region_exit`` markers; this pass validates that every
  marker refers to a region in the tree and that loop markers nest properly
  with their body markers.

Before either step, :func:`~repro.analysis.dependence.mark_dependence_breaks`
puts the induction/reduction marks of §4.1 on the IR, so the precomputed
shadow operands already leave the broken operands out.

The pass is idempotent and does not change program semantics — exactly the
property the paper relies on when it optimizes *after* instrumenting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.control_dependence import (
    ControlDependenceInfo,
    compute_control_dependence,
)
from repro.analysis.dependence import mark_dependence_breaks
from repro.analysis.facts import ModuleFacts, build_module_facts
from repro.analysis.loops import LoopForest, find_natural_loops
from repro.instrument.costs import DEFAULT_COST_MODEL, CostModel
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import RegionEnter, RegionExit
from repro.ir.module import Module
from repro.ir.types import FLOAT


@dataclass
class FunctionInstrumentation:
    """Per-function runtime metadata."""

    control: ControlDependenceInfo
    #: join block -> list of branch blocks whose control entry pops there.
    pops_at: dict[BasicBlock, list[BasicBlock]] = field(default_factory=dict)
    #: Blocks whose branch decides loop continuation (the header test of a
    #: for/while, or the latch test of a do-while). These branches do NOT
    #: push control-dependence entries: after induction breaking, a counted
    #: loop's iteration count is known up front, and chaining iteration k+1's
    #: control on iteration k's exit test would serialize every loop —
    #: contradicting the paper's SP = n result for parallel children
    #: (Figure 5). Loops whose exit genuinely depends on loop-carried data
    #: still serialize through the data chain itself.
    loop_branch_blocks: set[BasicBlock] = field(default_factory=set)


@dataclass
class ModuleInstrumentation:
    """All metadata :func:`instrument_module` attaches to a module."""

    cost_model: CostModel
    functions: dict[str, FunctionInstrumentation] = field(default_factory=dict)


def _shadow_operand_indices(instr) -> tuple[int, ...]:
    """Register indices whose availability times feed this instruction,
    honoring the induction/reduction dependence-breaking rule (§4.1)."""
    from repro.ir.instructions import BinOp
    from repro.ir.values import Register

    if isinstance(instr, BinOp) and instr.dep_break is not None:
        operands = (instr.rhs,) if instr.break_operand == 0 else (instr.lhs,)
    else:
        operands = instr.operands
    return tuple(
        operand.index for operand in operands if type(operand) is Register
    )


def instrument_function(
    function: Function, cost_model: CostModel, forest: LoopForest | None = None
) -> FunctionInstrumentation:
    """Costs, shadow operands and the control-dependence schedule of one
    function; ``forest`` is its natural-loop forest when already built."""
    for block in function.blocks:
        for instr in block.instructions:
            is_float = instr.result is not None and instr.result.type == FLOAT
            instr.cost = cost_model.cost_of(instr.opcode, is_float=is_float)
            # Precomputed for the KremLib hot path: which register operands
            # the shadow update reads, and where the result lands.
            instr.shadow_ops = _shadow_operand_indices(instr)
            instr.result_index = (
                instr.result.index if instr.result is not None else None
            )
        terminator = block.terminator
        if terminator is not None:
            terminator.cost = cost_model.cost_of(terminator.opcode)

    control = compute_control_dependence(function)
    pops_at: dict[BasicBlock, list[BasicBlock]] = {}
    for branch_block, join in control.branch_join.items():
        if join is not None:
            pops_at.setdefault(join, []).append(branch_block)

    loop_branch_blocks: set[BasicBlock] = set()
    forest = forest or find_natural_loops(function)
    for block in control.branch_join:
        loop = forest.loop_of(block)
        if loop is None:
            continue
        if block is loop.header or loop.header in block.successors:
            loop_branch_blocks.add(block)

    return FunctionInstrumentation(
        control=control, pops_at=pops_at, loop_branch_blocks=loop_branch_blocks
    )


def _validate_region_markers(module: Module) -> None:
    regions = module.regions
    if regions is None:
        raise ValueError("module has no region tree; run lowering first")
    valid_ids = {region.id for region in regions}
    for function in module.functions.values():
        for block in function.blocks:
            for instr in block.instructions:
                if isinstance(instr, (RegionEnter, RegionExit)):
                    if instr.region_id not in valid_ids:
                        raise ValueError(
                            f"{function.name}: marker references unknown region "
                            f"#{instr.region_id}"
                        )
        if function.region_id not in valid_ids:
            raise ValueError(f"{function.name}: function region id missing")


def instrument_module(
    module: Module,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    facts: ModuleFacts | None = None,
) -> ModuleInstrumentation:
    """Mark dependence breaks, then attach costs and control-dependence
    schedules to every function. ``facts`` are the module's analysis facts
    when the caller already built them."""
    _validate_region_markers(module)
    if facts is None:
        facts = build_module_facts(module)
    mark_dependence_breaks(facts)
    instrumentation = ModuleInstrumentation(cost_model=cost_model)
    for name, function in module.functions.items():
        instrumentation.functions[name] = instrument_function(
            function, cost_model, facts.functions[name].forest
        )
    return instrumentation
