"""Reaching-definitions and def-use chain tests."""

import glob
import os
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.dataflow import (
    ReachingDefinitions,
    definitions_in_loop,
    upward_exposed_registers,
)
from repro.analysis.loops import find_natural_loops
from repro.bench_suite.registry import all_benchmarks
from repro.fuzz.generator import generate_program
from repro.ir.values import Register
from tests.conftest import compile_source


def reaching_for(source, name="main"):
    program = compile_source(source)
    function = program.module.function(name)
    return function, ReachingDefinitions(function)


def find_register(function, name):
    for param in function.params:
        if param.name == name:
            return param
    for block in function.blocks:
        for instr in block.instructions:
            if instr.result is not None and instr.result.name == name:
                return instr.result
    raise KeyError(name)


class TestReachingDefinitions:
    def test_straight_line_single_def(self):
        function, rd = reaching_for(
            "int main() { int x = 1; int y = x + 2; return y; }"
        )
        x = find_register(function, "x")
        assert len(rd.defs_of[x]) == 1

    def test_if_else_merge_has_two_defs(self):
        function, rd = reaching_for(
            """
            int main() {
              int x = 0;
              if (x < 1) { x = 1; } else { x = 2; }
              return x;
            }
            """
        )
        x = find_register(function, "x")
        # Three textual defs: the init and one per branch arm.
        assert len(rd.defs_of[x]) == 3
        # At the return, only the two arm defs reach (the init is killed
        # on both paths).
        terminator = next(
            block.terminator
            for block in function.blocks
            if block.terminator is not None
            and x in block.terminator.operands
        )
        reaching = rd.reaching(terminator, x)
        assert len(reaching) == 2
        assert all(d.instr is not None for d in reaching)
        assert len({d.block.label for d in reaching}) == 2

    def test_parameters_reach_entry(self):
        function, rd = reaching_for(
            "int f(int n) { return n + 1; }\nint main() { return f(1); }",
            name="f",
        )
        n = function.params[0]
        defs = rd.defs_of[n]
        assert any(d.is_parameter for d in defs)
        # The parameter definition is observed by the body's use.
        [param_def] = [d for d in defs if d.is_parameter]
        assert rd.uses_of[param_def]

    def test_loop_body_sees_both_init_and_update(self):
        function, rd = reaching_for(
            "int main() { int s = 0; for (int i = 0; i < 4; i++)"
            " { s = s + i; } return s; }"
        )
        s = find_register(function, "s")
        forest = find_natural_loops(function)
        [loop] = forest.loops
        update = next(
            instr
            for block in function.blocks
            if block in loop.blocks
            for instr in block.instructions
            if instr.opcode.startswith("binop") and s in instr.operands
        )
        # Inside the loop the read of s sees the init (first trip) and the
        # previous iteration's update (back edge).
        assert len(rd.reaching(update, s)) == 2

    def test_external_reaching_finds_loop_init(self):
        function, rd = reaching_for(
            "int main() { int s = 7; for (int i = 0; i < 4; i++)"
            " { s = s + 1; } return s; }"
        )
        forest = find_natural_loops(function)
        [loop] = forest.loops
        s = find_register(function, "s")
        external = rd.external_reaching(loop, s)
        assert len(external) == 1
        [init] = external
        assert init.block not in loop.blocks


class TestLoopHelpers:
    SOURCE = """
    float a[32];
    int main() {
      float t = 0.0;
      for (int i = 0; i < 32; i++) {
        t = a[i] * 2.0;
        a[i] = t;
      }
      return (int) t;
    }
    """

    def _loop(self):
        program = compile_source(self.SOURCE)
        function = program.module.function("main")
        [loop] = find_natural_loops(function).loops
        return function, loop

    def test_upward_exposed_excludes_killed_temp(self):
        function, loop = self._loop()
        t = find_register(function, "t")
        i = find_register(function, "i")
        exposed = upward_exposed_registers(loop)
        # t is written before read in every iteration -> not exposed;
        # i is read by the header test before its update -> exposed.
        assert t not in exposed
        assert i in exposed

    def test_definitions_in_loop(self):
        function, loop = self._loop()
        rd = ReachingDefinitions(function)
        t = find_register(function, "t")
        in_loop = definitions_in_loop(rd, loop)
        assert t in in_loop
        assert all(
            d.block in loop.blocks
            for defs in in_loop.values()
            for d in defs
        )


# ----------------------------------------------------------------------
# Oracle: a plain set-based fixpoint, written out here on purpose so the
# bit-vector implementation is checked against an independent reading of
# the textbook definition. A definition is ``(register, block, instr)``.
# ----------------------------------------------------------------------


def _owners(block):
    owners = list(block.instructions)
    if block.terminator is not None:
        owners.append(block.terminator)
    return owners


def _used(owner):
    return [op for op in owner.operands if isinstance(op, Register)]


class ReferenceReaching:
    def __init__(self, function):
        entry = function.entry
        params = {(p, entry, None) for p in function.params}
        all_defs = set(params)
        for block in function.blocks:
            for instr in block.instructions:
                if instr.result is not None:
                    all_defs.add((instr.result, block, instr))

        reachable = []
        stack = [entry]
        while stack:
            block = stack.pop()
            if block in reachable:
                continue
            reachable.append(block)
            stack.extend(block.successors)
        preds = {block: [] for block in reachable}
        for block in reachable:
            for successor in block.successors:
                preds[successor].append(block)

        gen, kill = {}, {}
        for block in reachable:
            last = {}
            for instr in block.instructions:
                if instr.result is not None:
                    last[instr.result] = (instr.result, block, instr)
            gen[block] = set(last.values())
            kill[block] = {d for d in all_defs if d[0] in last} - gen[block]

        self.reach_in = {block: set() for block in reachable}
        out = {block: set() for block in reachable}
        changed = True
        while changed:
            changed = False
            for block in reachable:
                incoming = set(params) if block is entry else set()
                for pred in preds[block]:
                    incoming |= out[pred]
                new_out = (incoming - kill[block]) | gen[block]
                if incoming != self.reach_in[block] or new_out != out[block]:
                    self.reach_in[block] = incoming
                    out[block] = new_out
                    changed = True

        #: (owner, register) -> reaching defs, for every use
        self.use_defs = {}
        #: def -> multiset of observing owners
        self.uses_of = {}
        for block in reachable:
            live = set(self.reach_in[block])
            for owner in _owners(block):
                for register in _used(owner):
                    found = {d for d in live if d[0] is register}
                    self.use_defs[(owner, register)] = found
                    for d in found:
                        self.uses_of.setdefault(d, Counter())[id(owner)] += 1
                result = getattr(owner, "result", None)
                if result is not None:
                    live = {d for d in live if d[0] is not result}
                    live.add((result, block, owner))


def _key(definition):
    return (definition.register, definition.block, definition.instr)


def assert_matches_reference(function):
    rd = ReachingDefinitions(function)
    ref = ReferenceReaching(function)

    for (owner, register), expected in ref.use_defs.items():
        assert {_key(d) for d in rd.reaching(owner, register)} == expected

    for definitions in rd.defs_of.values():
        for definition in definitions:
            got = Counter(id(owner) for owner in rd.uses_of.get(definition, []))
            assert got == ref.uses_of.get(_key(definition), Counter())

    registers = set(rd.defs_of)
    for owner, register in ref.use_defs:
        registers.add(register)
    for loop in find_natural_loops(function).loops:
        for register in registers:
            expected = {
                d
                for d in ref.reach_in[loop.header]
                if d[0] is register
                and (d[1] not in loop.blocks or d[2] is None)
            }
            got = rd.external_reaching(loop, register)
            assert {_key(d) for d in got} == expected


def assert_program_matches_reference(source, filename="oracle.c"):
    program = compile_source(source, filename)
    for function in program.module.functions.values():
        assert_matches_reference(function)


_REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
_CORPUS = sorted(glob.glob(os.path.join(_REPO, "tests", "fuzz", "corpus", "*.c")))


class TestAgainstReferenceFixpoint:
    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_bench_programs(self, bench):
        assert_program_matches_reference(bench.source, f"{bench.name}.c")

    @pytest.mark.parametrize("path", _CORPUS, ids=os.path.basename)
    def test_fuzz_corpus(self, path):
        with open(path, encoding="utf-8") as handle:
            assert_program_matches_reference(
                handle.read(), os.path.basename(path)
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_generated_programs(self, seed):
        assert_program_matches_reference(generate_program(seed))
