"""Natural-loop detection over the IR CFG.

Lowering already knows the loop structure (it created the regions), so this
pass exists to *validate* that structure — tests assert that the natural
loops found here line up one-to-one with the LOOP regions lowering emitted —
and to support IR-level induction/reduction detection, which needs loop
membership for code that arrives without region annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import predecessor_map, reachable_blocks
from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


@dataclass(eq=False)
class Loop:
    """A natural loop: header plus the body blocks of all its back edges."""

    header: BasicBlock
    blocks: set[BasicBlock] = field(default_factory=set)
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def __repr__(self) -> str:
        return f"<loop header={self.header.label} blocks={len(self.blocks)}>"


@dataclass
class LoopForest:
    """All natural loops of a function, with nesting links."""

    loops: list[Loop] = field(default_factory=list)
    #: innermost loop containing each block (absent = not in any loop)
    block_loop: dict[BasicBlock, Loop] = field(default_factory=dict)
    #: the dominator tree the back edges were found with
    dom: DominatorTree | None = None

    def loop_of(self, block: BasicBlock) -> Loop | None:
        return self.block_loop.get(block)


def find_natural_loops(function: Function) -> LoopForest:
    """Detect natural loops via back edges (``latch -> header`` where the
    header dominates the latch) and build the nesting forest."""
    dom = dominator_tree(function)
    preds = predecessor_map(function)

    # Collect back edges, merging loops that share a header.
    header_latches: dict[BasicBlock, list[BasicBlock]] = {}
    for block in reachable_blocks(function):
        for successor in block.successors:
            if dom.dominates(successor, block):
                header_latches.setdefault(successor, []).append(block)

    loops: list[Loop] = []
    for header, latches in header_latches.items():
        loop = Loop(header=header)
        loop.blocks.add(header)
        worklist = list(latches)
        while worklist:
            block = worklist.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            worklist.extend(preds.get(block, []))
        loops.append(loop)

    # Nest loops: sort by size so the smallest containing loop wins.
    loops.sort(key=lambda l: len(l.blocks))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1 :]:
            if inner.header in outer.blocks and inner is not outer:
                inner.parent = outer
                outer.children.append(inner)
                break

    forest = LoopForest(loops=loops, dom=dom)
    for loop in loops:  # smallest (innermost) first: first claim wins
        for block in loop.blocks:
            forest.block_loop.setdefault(block, loop)
    return forest
