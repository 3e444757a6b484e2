#!/usr/bin/env python3
"""CI codegen smoke check for the AOT compiled engine.

Compiles and runs the example program plus every fuzz-corpus reproducer
under the compiled engine and asserts, for each one:

1. the plain run result (value, output, instruction accounting) is
   identical to the tree reference engine's;
2. the serialized parallelism profile under the KremLib profiler is
   byte-identical to the tree engine's, at unlimited depth and under a
   depth window (``max_depth=2``), with metrics collection off and again
   with it on (the metrics-on fused code must compute the same profile);
3. generated code is actually being exercised (the unit cache reports
   codegen activity).

Exit code 0 = all checks pass. Run from the repo root:

    PYTHONPATH=src python scripts/check_codegen.py
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.hcpa.serialize import profile_to_json  # noqa: E402
from repro.instrument.compile import kremlin_cc  # noqa: E402
from repro.interp.interpreter import Interpreter  # noqa: E402
from repro.kremlib.profiler import KremlinProfiler  # noqa: E402
from repro.obs import collecting_metrics  # noqa: E402

CORPUS = sorted((REPO_ROOT / "tests" / "fuzz" / "corpus").glob("*.c"))
EXAMPLES = [REPO_ROOT / "examples" / "quickstart.c"]
#: (metrics collection on, max_depth) for every profiled comparison
CONFIGS = [(metrics, depth) for metrics in (False, True) for depth in (None, 2)]


def _signature(program, engine: str, max_depth=None) -> tuple:
    profiler = KremlinProfiler(program, max_depth=max_depth)
    interp = Interpreter(program, observer=profiler, engine=engine)
    result = interp.run("main")
    return (
        repr(result.value),
        tuple(result.output),
        result.instructions_retired,
        result.total_cost,
        json.dumps(profile_to_json(profiler.profile), sort_keys=True),
    )


def _plain_signature(program, engine: str) -> tuple:
    result = Interpreter(program, engine=engine).run("main")
    return (
        repr(result.value),
        tuple(result.output),
        result.instructions_retired,
        result.total_cost,
    )


def main() -> int:
    paths = EXAMPLES + CORPUS
    if not CORPUS:
        print("codegen-smoke: FAIL no corpus programs found", file=sys.stderr)
        return 1
    failures = 0
    _programs = []
    for path in paths:
        program = kremlin_cc(path.read_text(), path.name)
        _programs.append(program)
        label = path.name
        if _plain_signature(program, "tree") != _plain_signature(
            program, "compiled"
        ):
            print(f"codegen-smoke: FAIL {label}: plain run diverged")
            failures += 1
            continue
        for metrics, max_depth in CONFIGS:
            with collecting_metrics() if metrics else nullcontext():
                tree = _signature(program, "tree", max_depth)
                compiled = _signature(program, "compiled", max_depth)
            if tree != compiled:
                tag = "unlimited" if max_depth is None else f"depth={max_depth}"
                if metrics:
                    tag += ", metrics on"
                print(f"codegen-smoke: FAIL {label} ({tag}): profile diverged")
                failures += 1
                break
        else:
            print(f"codegen-smoke: ok {label}")

    # Generated code must actually have been exercised: every program
    # accumulates its AOT units in the per-program codegen cache.
    generated = sum(
        len(program.__dict__.get("_codegen_units", {}))
        for program in _programs
    )
    if generated == 0:
        print("codegen-smoke: FAIL no code was generated", file=sys.stderr)
        failures += 1
    if failures:
        print(f"codegen-smoke: {failures} failure(s)", file=sys.stderr)
        return 1
    print(
        f"codegen-smoke: {len(paths)} programs byte-identical "
        f"({generated} units generated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
