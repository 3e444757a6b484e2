"""Classic per-function dataflow: reaching definitions and def-use chains.

The IR is deliberately *not* SSA — lowering gives every source variable one
virtual register and assignments are ``copy`` instructions — so the
dependence classifier needs honest iterative dataflow to know which write
of a register a given read can observe. This module provides:

* :class:`ReachingDefinitions` — the textbook gen/kill fixpoint over the
  CFG, exposing use-def chains (:meth:`~ReachingDefinitions.reaching`),
  def-use chains (``uses_of``) and per-block reaching sets;
* :func:`upward_exposed_registers` — the registers a natural loop may read
  *before* writing them in an iteration, i.e. exactly the candidates for a
  loop-carried scalar dependence flowing around the back edge.

The fixpoint runs on bit vectors. Every definition gets an index (the
parameters first, then the instruction results in block layout order), so
a set of definitions is one ``int``: gen, kill, in and out are one integer
per block, and each register keeps the mask of all its definitions. A
block's transfer is ``out = (in & ~kill) | gen`` and a merge is ``|``.
Masks turn back into :class:`Definition` sets only when a query or a
use-def chain needs them, and each distinct mask is turned back once.

Function parameters are modeled as definitions at the entry block (a
synthetic :class:`Definition` with ``instr=None``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import predecessor_map, reverse_postorder
from repro.analysis.loops import Loop
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Register


@dataclass(frozen=True)
class Definition:
    """One write of a register: an instruction result, or a parameter
    (``instr is None``, defined at function entry)."""

    register: Register
    block: BasicBlock | None
    instr: Instruction | None

    @property
    def is_parameter(self) -> bool:
        return self.instr is None

    def __repr__(self) -> str:
        where = "param" if self.is_parameter else self.instr.opcode
        return f"<def {self.register!r} @ {where}>"


def _register_uses(owner) -> list[Register]:
    """Register operands of an instruction or terminator."""
    return [op for op in owner.operands if isinstance(op, Register)]


class ReachingDefinitions:
    """Reaching definitions + def-use chains for one function."""

    def __init__(self, function: Function):
        self.function = function
        #: every definition of each register, in layout order
        self.defs_of: dict[Register, list[Definition]] = {}
        #: Definition -> instructions/terminators that may observe it
        self.uses_of: dict[Definition, list] = {}
        #: every definition; bit ``k`` of a mask stands for ``_defs[k]``
        self._defs: list[Definition] = []
        #: register -> mask of all its definitions
        self._reg_mask: dict[Register, int] = {}
        #: mask of the definitions reaching the *top* of each block
        self._reach_in: dict[BasicBlock, int] = {}
        #: (instruction or terminator) -> {register -> reaching defs}
        self._use_defs: dict[int, dict[Register, frozenset[Definition]]] = {}
        #: mask -> the frozenset it stands for (each built once)
        self._sets: dict[int, frozenset[Definition]] = {0: frozenset()}
        self._compute()

    # ------------------------------------------------------------------

    def _define(self, register: Register, block, instr) -> int:
        """Index a new definition; returns its bit."""
        definition = Definition(register, block, instr)
        bit = 1 << len(self._defs)
        self._defs.append(definition)
        self.defs_of.setdefault(register, []).append(definition)
        self._reg_mask[register] = self._reg_mask.get(register, 0) | bit
        return bit

    def _compute(self) -> None:
        function = self.function
        entry = function.entry
        reg_mask = self._reg_mask

        param_mask = 0
        for param in function.params:
            param_mask |= self._define(param, entry, None)

        # gen: last def of each register in the block; kill: all other defs
        # of registers the block writes (known once every def is indexed).
        bit_of: dict[int, int] = {}  # id(instruction) -> its def's bit
        block_last: dict[BasicBlock, dict[Register, int]] = {}
        for block in function.blocks:
            last: dict[Register, int] = {}
            for instr in block.instructions:
                if instr.result is not None:
                    bit = self._define(instr.result, block, instr)
                    bit_of[id(instr)] = last[instr.result] = bit
            block_last[block] = last
        gen: dict[BasicBlock, int] = {}
        keep: dict[BasicBlock, int] = {}  # complement of kill
        for block, last in block_last.items():
            block_gen = 0
            written = 0
            for register, bit in last.items():
                block_gen |= bit
                written |= reg_mask[register]
            gen[block] = block_gen
            keep[block] = ~(written & ~block_gen)

        preds = predecessor_map(function)
        order = reverse_postorder(function)
        reach_in = dict.fromkeys(order, 0)
        reach_in[entry] = param_mask
        reach_out = dict.fromkeys(order, 0)
        changed = True
        while changed:
            changed = False
            for block in order:
                incoming = param_mask if block is entry else 0
                for pred in preds[block]:
                    incoming |= reach_out[pred]
                out = (incoming & keep[block]) | gen[block]
                if incoming != reach_in[block] or out != reach_out[block]:
                    reach_in[block] = incoming
                    reach_out[block] = out
                    changed = True
        self._reach_in = reach_in

        # One forward walk per block builds the use-def chains.
        use_defs = self._use_defs
        uses_of = self.uses_of
        for block in order:
            live = reach_in[block]
            for owner in [*block.instructions, block.terminator]:
                if owner is None:
                    continue
                used = _register_uses(owner)
                if used:
                    chains = {
                        register: self._as_set(
                            live & reg_mask.get(register, 0)
                        )
                        for register in used
                    }
                    use_defs[id(owner)] = chains
                    for register in used:
                        for definition in chains[register]:
                            uses_of.setdefault(definition, []).append(owner)
                result = getattr(owner, "result", None)
                if result is not None:
                    live = (live & ~reg_mask[result]) | bit_of[id(owner)]

    def _as_set(self, mask: int) -> frozenset[Definition]:
        """The definitions a mask stands for."""
        found = self._sets.get(mask)
        if found is None:
            defs = self._defs
            members = []
            rest = mask
            while rest:
                low = rest & -rest
                members.append(defs[low.bit_length() - 1])
                rest ^= low
            found = self._sets[mask] = frozenset(members)
        return found

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def reaching(self, owner, register: Register) -> frozenset[Definition]:
        """Definitions of ``register`` that may reach a use at ``owner``
        (an instruction or terminator that actually uses it)."""
        return self._use_defs.get(id(owner), {}).get(register, frozenset())

    def reaching_at_block(
        self, block: BasicBlock, register: Register
    ) -> frozenset[Definition]:
        """Definitions of ``register`` reaching the top of ``block``."""
        return self._as_set(
            self._reach_in.get(block, 0) & self._reg_mask.get(register, 0)
        )

    def external_reaching(
        self, loop: Loop, register: Register
    ) -> frozenset[Definition]:
        """Definitions of ``register`` from *outside* ``loop`` that reach
        the loop header — the values the first iteration can observe."""
        return frozenset(
            d
            for d in self.reaching_at_block(loop.header, register)
            if d.block not in loop.blocks or d.is_parameter
        )


def upward_exposed_registers(loop: Loop) -> set[Register]:
    """Registers some path from the loop header may *read before writing*.

    A register written inside the loop that is also upward-exposed reads
    the previous iteration's value around the back edge — the scalar
    loop-carried candidates. Computed as a backward union fixpoint over the
    loop's own blocks: ``exposed(B) = local_ue(B) ∪ (⋃ exposed(succ∩loop)
    − defs(B))``.
    """
    local_ue: dict[BasicBlock, set[Register]] = {}
    defs: dict[BasicBlock, set[Register]] = {}
    for block in loop.blocks:
        written: set[Register] = set()
        exposed: set[Register] = set()
        for owner in [*block.instructions, block.terminator]:
            if owner is None:
                continue
            for register in _register_uses(owner):
                if register not in written:
                    exposed.add(register)
            result = getattr(owner, "result", None)
            if result is not None:
                written.add(result)
        local_ue[block] = exposed
        defs[block] = written

    exposed_at: dict[BasicBlock, set[Register]] = {
        block: set(local_ue[block]) for block in loop.blocks
    }
    changed = True
    while changed:
        changed = False
        for block in loop.blocks:
            incoming: set[Register] = set()
            for successor in block.successors:
                if successor in loop.blocks:
                    incoming.update(exposed_at[successor])
            combined = local_ue[block] | (incoming - defs[block])
            if combined != exposed_at[block]:
                exposed_at[block] = combined
                changed = True
    return exposed_at[loop.header]


def definitions_in_loop(
    rd: ReachingDefinitions, loop: Loop
) -> dict[Register, list[Definition]]:
    """Registers written inside ``loop``, with their in-loop definitions."""
    out: dict[Register, list[Definition]] = {}
    for register, definitions in rd.defs_of.items():
        inside = [
            d for d in definitions
            if not d.is_parameter and d.block in loop.blocks
        ]
        if inside:
            out[register] = inside
    return out
