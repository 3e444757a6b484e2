#!/usr/bin/env python3
"""Count the bytecodes generated code executes in one profiled run.

Wall time of a profiled run swings by tens of percent on a shared
machine, so a few-percent change to the fused emitter cannot be sized
with a clock. The number of CPython bytecodes the generated frames
execute is deterministic for one CPython build and one program, so it
sizes such a change exactly and lets anyone re-check a claim.

For each bench program (all 13 by default) this compiles the program,
builds the fused unit at an unlimited depth window with metrics off
(the profiler's default), and counts ``sys.settrace`` opcode events in
frames whose code was generated (``co_filename`` starting with
``<kremlin-codegen``) over one profiled run. Codegen happens before the
trace starts. It prints one row per program: bytecodes and the fused
source's line count. Tracing slows a run ~20x (cg takes about a minute).

    PYTHONPATH=src python scripts/count_bytecodes.py [name ...] [--json OUT]

To compare two checkouts, run a copy of this script from each: it
imports ``repro`` from the ``src`` next to its own ``scripts``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

_GENERATED = "<kremlin-codegen"


def count_bytecodes(program, entry: str = "main") -> tuple[int, int]:
    """(bytecodes executed in generated frames, fused source lines) of
    one profiled run of ``program`` on the compiled engine."""
    from repro.interp.interpreter import Interpreter
    from repro.kremlib.profiler import KremlinProfiler

    profiler = KremlinProfiler(program)
    interp = Interpreter(program, observer=profiler, engine="compiled")
    interp.prepare()
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcodes

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_GENERATED):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcodes

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        interp.run(entry)
    finally:
        sys.settrace(previous)
    lines = interp._compiled.unit.source.count("\n")
    return count, lines


def main(argv=None) -> int:
    from repro.bench_suite.registry import all_benchmarks, get_benchmark

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "names", nargs="*", help="bench programs (default: all 13)"
    )
    parser.add_argument("--json", help="also write {name: [bytecodes, lines]}")
    args = parser.parse_args(argv)
    benches = (
        [get_benchmark(name) for name in args.names]
        if args.names
        else all_benchmarks()
    )
    rows: dict[str, list[int]] = {}
    print(f"{'program':<10}{'bytecodes':>14}{'fused lines':>13}")
    for bench in benches:
        bytecodes, lines = count_bytecodes(bench.compile())
        rows[bench.name] = [bytecodes, lines]
        print(f"{bench.name:<10}{bytecodes:>14,}{lines:>13,}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
