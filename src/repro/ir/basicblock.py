"""Basic blocks: straight-line instruction lists with one terminator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Instruction, Terminator


@dataclass(eq=False)
class BasicBlock:
    """A basic block.

    Predecessors are not stored; compute them per-function with
    :func:`repro.analysis.cfg.predecessor_map` so they can never go stale
    while passes mutate the graph.
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)
    terminator: Terminator | None = None
    #: Filled by lowering: the innermost static region (loop body / loop /
    #: function) this block belongs to. Used by instrumentation and tests.
    region_id: int = -1

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def successors(self) -> tuple["BasicBlock", ...]:
        if self.terminator is None:
            return ()
        return self.terminator.successors

    def append(self, instruction: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"appending to terminated block {self.label}")
        self.instructions.append(instruction)
        return instruction

    def terminate(self, terminator: Terminator) -> Terminator:
        if self.is_terminated:
            raise ValueError(f"block {self.label} already terminated")
        self.terminator = terminator
        return terminator

    def __repr__(self) -> str:
        return f"<block {self.label}>"
