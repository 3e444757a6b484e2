"""Interpreter micro-benchmark harness: compiled engine vs tree reference.

Measures steady-state instructions-retired/sec for three NPB kernels
(``ep``, ``is``, ``mg``) in two modes — *plain* (no observer) and *hcpa*
(under the :class:`KremlinProfiler` with the fused generated code) — on
both execution engines (``tree`` and ``compiled``), and records the
results in ``benchmarks/perf/BENCH_interp.json``.

Steady-state means one-time preparation cost is amortized: each engine
gets one interpreter whose ``prepare()`` (AOT codegen + binding for
compiled, a no-op for tree) is timed separately — and split into two
lanes so the 20% gate never flaps on cache state:

* ``*_codegen_cold_seconds`` — prepare with an empty persistent codegen
  cache: genuine codegen (plus the cache write);
* ``*_codegen_warm_seconds`` — prepare of a *fresh program object* after
  the cold lane populated the cache: the warm-restart path, which for
  the compiled engine loads the assembled code object from disk and
  performs zero codegen.

The cache lives in a harness-private temporary directory, so a
developer's ``~/.cache/kremlin`` never leaks into the measurements. The
cold lane's interpreter is then reused for every timed run of its
engine: each run starts from fresh run state, so a run's
``instructions_retired`` (what the instr/s rates use) is one run's
count. Each engine takes ``--runs`` samples, interleaved round-robin
across engines so host load spikes hit every engine equally, and keeps
its best. A sample repeats the run until it has lasted at least
:data:`SAMPLE_SECONDS` and records the time per run, so a ~10 ms
compiled run is not timed by a single reading of a noisy clock.

Usage::

    python benchmarks/perf/harness.py            # measure + print table
    python benchmarks/perf/harness.py --update   # measure UPDATE_PASSES
                                                 # times and rewrite the
                                                 # baseline (median ratios)
    python benchmarks/perf/harness.py --check    # compare speedups against
                                                 # the checked-in baseline;
                                                 # exit 1 on a >20% regression

``--check`` compares compiled-vs-tree *speedup ratios*, not absolute
times, so the baseline is portable across machines: a regression means
the compiled engine got slower relative to the tree engine on the same
hardware, which is exactly the property it exists to provide. The
ratio itself drifts with host load, so ``--update`` measures
:data:`UPDATE_PASSES` times and records, per benchmark and mode, the
pass whose ratio is the median: a single pass drawn high would make
later checks flag with no code change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src"))
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, _SRC)

from repro.bench_suite.registry import get_benchmark
from repro.interp.interpreter import Interpreter
from repro.kremlib.profiler import KremlinProfiler

BASELINE_PATH = os.path.join(_HERE, "BENCH_interp.json")
BENCHMARKS = ("ep", "is", "mg")
ENGINES = ("tree", "compiled")
FAST_ENGINES = ("compiled",)
MODES = ("plain", "hcpa")
#: minimum wall-clock length of one timing sample
SAMPLE_SECONDS = 0.2
#: full measurements behind one ``--update`` baseline
UPDATE_PASSES = 3


def _prepare_seconds(program, engine: str, mode: str):
    """Build + prepare one interpreter; returns (interp, seconds)."""
    observer = KremlinProfiler(program) if mode == "hcpa" else None
    interp = Interpreter(program, observer=observer, engine=engine)
    started = time.perf_counter()
    interp.prepare()
    return interp, time.perf_counter() - started


def _sample(interp):
    """Run ``interp`` repeatedly for at least :data:`SAMPLE_SECONDS`;
    returns (seconds per run, the last run's result)."""
    repeats = 0
    started = time.perf_counter()
    while True:
        result = interp.run("main")
        repeats += 1
        elapsed = time.perf_counter() - started
        if elapsed >= SAMPLE_SECONDS:
            return elapsed / repeats, result


def _measure_mode(program, make_program, mode: str, runs: int) -> dict:
    """Measure every engine for one (benchmark, mode) combination.

    Preparation is timed per engine in two lanes: ``cold`` against the
    empty persistent cache (genuine codegen plus the cache write) and
    ``warm`` on a *fresh program object* from ``make_program()`` — no
    in-memory codegen units — which is the warm-restart path. The cold
    lane's interpreter then takes ``runs`` samples per engine,
    interleaved round-robin across engines (rather than all of one
    engine's samples back-to-back) so a transient load spike on the host
    penalizes every engine alike; each engine keeps its best sample.
    """
    row: dict = {}
    interps = {}
    for engine in ENGINES:
        interps[engine], cold_seconds = _prepare_seconds(program, engine, mode)
        _, warm_seconds = _prepare_seconds(make_program(), engine, mode)
        row[f"{engine}_codegen_cold_seconds"] = cold_seconds
        row[f"{engine}_codegen_warm_seconds"] = warm_seconds
    best = {engine: float("inf") for engine in ENGINES}
    retired = 0
    for _ in range(runs):
        for engine in ENGINES:
            seconds, result = _sample(interps[engine])
            best[engine] = min(best[engine], seconds)
            retired = result.instructions_retired
    for engine in ENGINES:
        row[f"{engine}_seconds"] = best[engine]
    row["instructions_retired"] = retired
    return row


def measure(names, runs: int) -> dict:
    """Measure every benchmark × mode × engine; return the results dict."""
    from repro.interp import diskcache

    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="kremlin-bench-") as cache_dir:
        diskcache.configure(directory=cache_dir, enabled=True)
        try:
            for name in names:
                program = get_benchmark(name).compile()
                make_program = lambda: get_benchmark(name).compile()  # noqa: E731,B023
                entry: dict[str, dict] = {}
                for mode in MODES:
                    row = _measure_mode(program, make_program, mode, runs)
                    retired = row["instructions_retired"]
                    for engine in ENGINES:
                        seconds = row[f"{engine}_seconds"]
                        cold = row[f"{engine}_codegen_cold_seconds"]
                        warm = row[f"{engine}_codegen_warm_seconds"]
                        print(
                            f"  {name:>2} {mode:>5} {engine:>8}: "
                            f"{seconds:8.4f}s (+{cold:.4f}s cold / "
                            f"{warm:.4f}s warm prep, "
                            f"{retired / seconds:,.0f} instr/s)",
                            file=sys.stderr,
                        )
                    for engine in ENGINES:
                        row[f"{engine}_ips"] = (
                            retired / row[f"{engine}_seconds"]
                        )
                    for engine in FAST_ENGINES:
                        row[f"speedup_{engine}"] = (
                            row["tree_seconds"] / row[f"{engine}_seconds"]
                        )
                    entry[mode] = row
                results[name] = entry
        finally:
            diskcache.configure()
    return results


def median_results(passes: list[dict]) -> dict:
    """Per benchmark and mode, the row of the pass whose compiled
    speedup is the median over ``passes``."""
    results: dict[str, dict] = {}
    for name in passes[0]:
        results[name] = {}
        for mode in MODES:
            rows = sorted(
                (results_of[name][mode] for results_of in passes),
                key=lambda row: row["speedup_compiled"],
            )
            results[name][mode] = rows[len(rows) // 2]
    return results


def render(results: dict) -> str:
    lines = [f"{'bench':>5}  {'mode':>5}  {'tree instr/s':>14}  {'compiled':>9}"]
    for name, entry in results.items():
        for mode in MODES:
            row = entry[mode]
            lines.append(
                f"{name:>5}  {mode:>5}  {row['tree_ips']:>14,.0f}  "
                f"{row['speedup_compiled']:>8.2f}x"
            )
    return "\n".join(lines)


def check(results: dict, baseline: dict, tolerance: float) -> int:
    """Compare measured speedups against the baseline's; 0 = OK."""
    status = 0
    for name, entry in baseline["results"].items():
        if name not in results:
            continue
        for mode in MODES:
            for engine in FAST_ENGINES:
                expected = entry[mode][f"speedup_{engine}"]
                actual = results[name][mode][f"speedup_{engine}"]
                floor = expected * (1.0 - tolerance)
                verdict = "ok" if actual >= floor else "REGRESSION"
                if actual < floor:
                    status = 1
                print(
                    f"{name:>5} {mode:>5} {engine:>8}: speedup {actual:.2f}x "
                    f"(baseline {expected:.2f}x, floor {floor:.2f}x) "
                    f"{verdict}"
                )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the compiled engine against the tree engine."
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"measure {UPDATE_PASSES} times and write the median-ratio "
        f"results to {BASELINE_PATH}",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if a speedup regresses >20%% vs the baseline",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=3,
        help="timing samples per engine (best kept)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional speedup regression for --check",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=list(BENCHMARKS),
        help="benchmark names (default: ep is mg)",
    )
    options = parser.parse_args(argv)

    passes = UPDATE_PASSES if options.update else 1
    results = median_results(
        [measure(options.benchmarks, options.runs) for _ in range(passes)]
    )
    print(render(results))

    if options.update:
        payload = {
            "format": "kremlin-interp-bench",
            "version": 5,
            "runs": options.runs,
            "passes": UPDATE_PASSES,
            "results": results,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")

    if options.check:
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        return check(results, baseline, options.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
