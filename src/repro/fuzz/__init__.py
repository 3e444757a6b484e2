"""Differential fuzzing and invariant oracle for the Kremlin pipeline.

The compiled engine is proved bit-identical to the tree-walking
reference engine on the hand-written suite programs. This package
generates the programs nobody hand-wrote:

* :mod:`repro.fuzz.generator` — a seeded random program generator over the
  MiniC frontend language (nested loops, branches, calls, recursion,
  arrays, reductions, early exits), guaranteed to terminate and to stay
  in-bounds by construction;
* :mod:`repro.fuzz.differential` — runs one program through every engine
  configuration (tree/compiled × plain/profiled × depth windows, plus
  compiled with metrics on) and asserts byte-identical results and
  serialized profiles;
* :mod:`repro.fuzz.oracle` — algebraic invariants the paper's HCPA
  definitions guarantee (``cp ≤ work``, ``SP ≥ 1``, child cp bounded by
  parent cp, compression round-trip, merge order-independence, planner
  determinism), checked on every generated profile;
* :mod:`repro.fuzz.shrink` — a structural AST shrinker that reduces any
  failing program to a minimal reproducer;
* :mod:`repro.fuzz.harness` — the ``kremlin fuzz`` driver: every failure
  is auto-shrunk and written to ``tests/fuzz/corpus/`` so it becomes a
  permanent regression test.
"""

from repro.fuzz.differential import (
    DifferentialFailure,
    DifferentialOutcome,
    ProgramInvalid,
    run_differential,
)
from repro.fuzz.generator import GeneratorConfig, ProgramGenerator, generate_program
from repro.fuzz.harness import FuzzFailure, FuzzHarness, FuzzStats, fuzz_main
from repro.fuzz.oracle import OracleViolation, run_oracle
from repro.fuzz.render import render_program
from repro.fuzz.shrink import shrink_source

__all__ = [
    "DifferentialFailure",
    "DifferentialOutcome",
    "FuzzFailure",
    "FuzzHarness",
    "FuzzStats",
    "GeneratorConfig",
    "OracleViolation",
    "ProgramGenerator",
    "ProgramInvalid",
    "fuzz_main",
    "generate_program",
    "render_program",
    "run_differential",
    "run_oracle",
    "shrink_source",
]
