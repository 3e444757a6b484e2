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
3. the second run of one reused interpreter, plain and under one
   reused profiler, on each engine, has the fresh run's full signature
   (value, output, instruction accounting and the serialized profile),
   and the first run's profile is not changed by the second;
4. generated code is actually being exercised (the unit cache reports
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


def _dump(profile) -> str:
    return json.dumps(profile_to_json(profile), sort_keys=True)


def _result_signature(result, profiler) -> tuple:
    signature = (
        repr(result.value),
        tuple(result.output),
        result.instructions_retired,
        result.total_cost,
    )
    if profiler is None:
        return signature
    return signature + (_dump(profiler.profile),)


def _signature(program, engine: str, max_depth=None, profiled=True) -> tuple:
    profiler = (
        KremlinProfiler(program, max_depth=max_depth) if profiled else None
    )
    interp = Interpreter(program, observer=profiler, engine=engine)
    return _result_signature(interp.run("main"), profiler)


def _reuse_matches(program, engine: str, profiled: bool, fresh: tuple) -> bool:
    """Run 2 of one reused interpreter (and profiler) has the fresh
    signature, and run 1's profile survives run 2 unchanged."""
    profiler = KremlinProfiler(program) if profiled else None
    interp = Interpreter(program, observer=profiler, engine=engine)
    interp.run("main")
    first = profiler.profile if profiled else None
    second = _result_signature(interp.run("main"), profiler)
    return second == fresh and (first is None or _dump(first) == fresh[-1])


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
        plain = _signature(program, "tree", profiled=False)
        if plain != _signature(program, "compiled", profiled=False):
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
            fresh = {False: plain, True: _signature(program, "tree")}
            reused = [
                f"{engine} {'profiled' if profiled else 'plain'}"
                for engine in ("tree", "compiled")
                for profiled in (False, True)
                if not _reuse_matches(
                    program, engine, profiled, fresh[profiled]
                )
            ]
            if reused:
                print(
                    f"codegen-smoke: FAIL {label}: reused interpreter "
                    f"diverged ({', '.join(reused)})"
                )
                failures += 1
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
